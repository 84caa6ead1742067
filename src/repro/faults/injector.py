"""Bridge from a :class:`FaultPlan` to the event engine's fault hooks.

The injector compiles the plan against a concrete topology (worker
faults expand to every link touching the worker) and answers the
questions the engine asks on its fault path: *can this link ever be
blocked?* (once per link), *is this link available now?* and *is this
transmission lost?*

Loss decisions are **counter-free**: each one is a pure hash of
``(seed, link, flow, packet, attempt)``, so they do not depend on the
order the event loop asks in.  Two runs of the same plan — or the same
plan on a rebuilt simulator — drop exactly the same transmissions.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Tuple

from ..netsim.engine import FaultHooks
from ..netsim.topology import Link, Topology
from .plan import FaultPlan

#: One compiled unavailability window.
_Window = Tuple[float, float]


def _draw(text: str) -> float:
    """Uniform draw in [0, 1) from the blake2b digest of ``text``."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def _unit_hash(*key: object) -> float:
    """Deterministic uniform draw in [0, 1) from a structured key: the
    digest of ``repr(key)``."""
    return _draw(repr(key))


class _LinkLosses:
    """The loss rules that match one link, compiled once per link.

    ``rules`` keeps the plan's order as ``(start_s, end_s, loss_prob)``
    for every rule whose prefix and endpoints match the link and whose
    probability is positive.  ``head`` is the text of ``repr((seed,
    src, dst))`` without its closing parenthesis, so :meth:`draw` hashes
    exactly the bytes ``_unit_hash(seed, src, dst, flow_id, seq,
    attempt, hop_index)`` hashes.
    """

    __slots__ = ("rules", "head")

    def __init__(self, plan: FaultPlan, link: Link) -> None:
        self.rules = tuple(
            (loss.start_s, loss.end_s, loss.loss_prob)
            for loss in plan.losses
            if loss.loss_prob > 0.0
            and (
                loss.link_name_prefix is None
                or link.name.startswith(loss.link_name_prefix)
            )
            and (loss.src is None or loss.src == link.src)
            and (loss.dst is None or loss.dst == link.dst)
        )
        self.head = repr((plan.seed, link.src, link.dst))[:-1]

    def draw(self, packet) -> float:
        """This transmission's uniform draw (``attempt`` included)."""
        return _draw(
            f"{self.head}, {packet.flow_id!r}, {packet.seq!r}, "
            f"{packet.attempt!r}, {packet.hop_index!r})"
        )


class FaultInjector(FaultHooks):
    """Engine-facing view of one :class:`FaultPlan`.

    Counters (``packets_dropped``, ``retransmits``, ``packets_failed``)
    accumulate across every simulator the injector is bound to, so a
    multi-attempt resilient collective reports totals.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.retransmit_timeout_s = plan.resilience.retransmit_timeout_s
        self.backoff_factor = plan.resilience.backoff_factor
        self.max_retransmits = plan.resilience.max_retransmits
        self.packets_dropped = 0
        self.retransmits = 0
        self.packets_failed = 0
        self._windows: Dict[Tuple[int, int], List[_Window]] = {}
        self._has_losses = bool(plan.losses)
        #: Compiled loss rules by link, filled on each link's first
        #: transmission or ``link_state`` query (they depend on the link
        #: alone, not the bind).
        self._losses: Dict[Link, _LinkLosses] = {}
        # Engine capability flags (see FaultHooks): a plan with no loss
        # rules can never drop, and one with no fault windows can never
        # block a link — the engine then skips those per-packet hooks.
        self.may_drop = self._has_losses
        self.may_block = bool(plan.link_faults or plan.worker_faults)

    # ---- compilation ------------------------------------------------------
    def bind(self, topology: Topology) -> None:
        """(Re)compile the plan's windows against ``topology``.

        Called by every :class:`NetworkSimulator` the injector is passed
        to; recompiling from the plan each time keeps binds idempotent
        when the resilience layer rebinds it to a spliced copy of the
        machine (host bridges added by a splice never touch dead
        workers).
        """
        windows: Dict[Tuple[int, int], List[_Window]] = {}
        for fault in self.plan.link_faults:
            windows.setdefault((fault.src, fault.dst), []).append(
                (fault.fail_s, fault.repair_s)
            )
        down_workers = {f.worker: f for f in self.plan.worker_faults}
        if down_workers:
            for link in topology.links:
                for endpoint in (link.src, link.dst):
                    fault = down_workers.get(endpoint)
                    if fault is not None:
                        windows.setdefault((link.src, link.dst), []).append(
                            (fault.fail_s, fault.repair_s)
                        )
        for key in windows:
            windows[key].sort()
        self._windows = windows

    # ---- engine hooks -----------------------------------------------------
    def may_block_link(self, link: Link) -> bool:
        """Whether a compiled fault window covers ``link``; the engine
        never asks ``link_available_at`` about any other link."""
        return (link.src, link.dst) in self._windows

    def link_available_at(self, link: Link, now: float) -> float:
        """Earliest time >= ``now`` the link is up (``inf`` = never)."""
        spans = self._windows.get((link.src, link.dst))
        if not spans:
            return now
        time = now
        for fail_s, repair_s in spans:
            if fail_s <= time < repair_s:
                if math.isinf(repair_s):
                    return math.inf
                time = repair_s
        return time

    def link_state(self, link: Link, t0: float, t1: float) -> str:
        """Classify ``link`` over the horizon ``[t0, t1]`` for the fast
        paths (:mod:`repro.netsim.fastpath`).

        ``"dead"``: down for the whole horizon (failed at or before
        ``t0``, never repaired) — traffic strands deterministically, so
        loss rules are irrelevant.  ``"dirty"``: any finite fault window
        or matching loss rule touches the horizon (boundaries follow the
        engine's checks: a failure at exactly ``t1`` is dirty because
        availability uses ``fail_s <= time``; a repair at exactly ``t0``
        is not).  ``"clean"``: the engine's fault path cannot affect any
        transmission in the horizon.
        """
        spans = self._windows.get((link.src, link.dst))
        if spans:
            for fail_s, repair_s in spans:
                if fail_s <= t0 and math.isinf(repair_s):
                    return "dead"
            for fail_s, repair_s in spans:
                if fail_s <= t1 and repair_s > t0:
                    return "dirty"
        if self._has_losses:
            for start_s, end_s, _ in self._link_losses(link).rules:
                if start_s <= t1 and end_s > t0:
                    return "dirty"
        return "clean"

    def _link_losses(self, link: Link) -> _LinkLosses:
        """The loss rules matching ``link``, compiled on first use."""
        losses = self._losses.get(link)
        if losses is None:
            losses = self._losses[link] = _LinkLosses(self.plan, link)
        return losses

    def drop_packet(self, link: Link, packet, time: float) -> bool:
        """Whether this transmission is lost: the first rule of the link
        active at ``time`` whose probability exceeds the draw."""
        losses = self._link_losses(link)
        draw = None
        for start_s, end_s, loss_prob in losses.rules:
            if not start_s <= time < end_s:
                continue
            if draw is None:
                draw = losses.draw(packet)
            if draw < loss_prob:
                self.packets_dropped += 1
                return True
        return False
