"""Tests for the DRAM capacity check and the energy model."""

from dataclasses import replace

import pytest

from repro.ndp import EnergyBreakdown, EnergyModel
from repro.ndp.dram import stack_fits
from repro.params import DEFAULT_PARAMS


class TestStackFits:
    """The planner's per-worker capacity filter."""

    def test_fits_at_the_reserved_capacity_and_not_one_byte_over(self):
        capacity = DEFAULT_PARAMS.dram_capacity_bytes
        assert stack_fits(0)
        assert stack_fits(capacity) and not stack_fits(capacity + 1)
        for fraction in (0.5, 0.25):
            assert stack_fits(capacity * fraction, fraction=fraction)
            assert not stack_fits(capacity * fraction + 1, fraction=fraction)

    def test_capacity_comes_from_params(self):
        small = replace(DEFAULT_PARAMS, dram_capacity_bytes=1024.0)
        assert stack_fits(512, small, fraction=0.5)
        assert not stack_fits(513, small, fraction=0.5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            stack_fits(-1)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.0 + 1e-9, 2.0])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            stack_fits(1, fraction=fraction)


class TestEnergy:
    def test_mac_energy_uses_paper_constants(self):
        model = EnergyModel()
        # 0.9 pJ add + 3.7 pJ mul per MAC.
        assert model.mac_energy(1e12) == pytest.approx(4.6)

    def test_dram_energy_per_bit(self):
        model = EnergyModel()
        assert model.dram_energy(1) == pytest.approx(8 * 3.7e-12)

    def test_breakdown_addition(self):
        a = EnergyBreakdown(compute_j=1.0, dram_j=2.0)
        b = EnergyBreakdown(compute_j=0.5, link_j=1.0)
        total = a + b
        assert total.compute_j == 1.5
        assert total.total_j == pytest.approx(4.5)

    def test_breakdown_scaling(self):
        a = EnergyBreakdown(compute_j=1.0, sram_j=2.0)
        assert a.scaled(3.0).total_j == pytest.approx(9.0)

    def test_idle_energy_counts_links_and_time(self):
        model = EnergyModel()
        e = model.link_idle_energy(2.0, full_links=4, narrow_links=0)
        assert e == pytest.approx(2.0 * 4 * DEFAULT_PARAMS.full_link_idle_w)
