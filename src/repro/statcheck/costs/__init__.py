"""The COST rule family's checks and facts.

The FLOP/bytes-moved polynomials are derived by the abstract
interpreter shared with the SHAPE family (:mod:`repro.statcheck.interp`).
See :mod:`.checks` for COST001–COST005, :mod:`.facts` for the
analytical model they check against, and :mod:`.baseline` for the
COST003 complexity baseline.
"""
