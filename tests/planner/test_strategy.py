"""Strategy-space enumeration: candidates, scoring, capacity filter."""

import pytest

from repro.core.config import d_dp, w_mp, w_mp_plus_plus
from repro.core.dynamic_clustering import candidate_grids
from repro.core.perf_model import PerfModel
from repro.params import DEFAULT_PARAMS, HardwareParams
from repro.planner import (
    DEFAULT_KNOBS,
    PlannerError,
    StrategyKnobs,
    layer_candidates,
    worker_footprint_bytes,
)
from repro.workloads import vgg16

LAYER = vgg16().conv_layers[4]  # conv3-256, a mid layer with real tiles
BATCH = 256
WORKERS = 256


class TestKnobs:
    def test_defaults_span_the_greedy_space(self):
        assert not DEFAULT_KNOBS.search_transforms
        assert DEFAULT_KNOBS.batch_splits == (1,)
        assert DEFAULT_KNOBS.capacity_frac == 1.0

    def test_rejects_empty_splits(self):
        with pytest.raises(PlannerError):
            StrategyKnobs(batch_splits=())

    def test_rejects_splits_without_one(self):
        with pytest.raises(PlannerError):
            StrategyKnobs(batch_splits=(2, 4))

    @pytest.mark.parametrize(
        "splits", [(1, 1), (1, True), (1, 2, 2), (1, 2.5)],
        ids=["repeated-one", "bool", "repeated-two", "float"],
    )
    def test_rejects_malformed_splits(self, splits):
        # Each would duplicate candidates (True == 1) or be skipped
        # silently (256 % 2.5 != 0).
        with pytest.raises(PlannerError, match="batch split"):
            StrategyKnobs(batch_splits=splits)

    def test_rejects_bad_capacity(self):
        with pytest.raises(PlannerError):
            StrategyKnobs(capacity_frac=0.0)
        with pytest.raises(PlannerError):
            StrategyKnobs(capacity_frac=1.5)


class TestDefaultCandidates:
    def test_one_default_candidate_per_grid(self):
        config = w_mp_plus_plus()
        grids = list(candidate_grids(LAYER, config, WORKERS))
        candidates = layer_candidates(LAYER, BATCH, config, WORKERS)
        assert [c.grid for c in candidates] == grids
        assert all(c.transform_is_default for c in candidates)
        assert all(c.batch_split == 1 for c in candidates)

    def test_default_scores_match_greedy_evaluations(self):
        # Each default candidate scores the very evaluation the greedy
        # optimiser picks from (one shared cache entry) — that is what
        # makes the zero-transition DP recover greedy exactly.
        config = w_mp_plus_plus()
        model = PerfModel()
        for cand in layer_candidates(LAYER, BATCH, config, WORKERS):
            perf = model.evaluate_layer(LAYER, BATCH, config, cand.grid)
            assert cand.perf is perf
            assert cand.time_s == perf.total_s
            assert cand.energy_j == perf.energy_j.total_j

    def test_static_config_has_single_grid(self):
        config = w_mp()
        candidates = layer_candidates(LAYER, BATCH, config, WORKERS)
        assert len({c.grid for c in candidates}) == 1

    def test_direct_config_has_no_transform(self):
        candidates = layer_candidates(LAYER, BATCH, d_dp(), WORKERS)
        assert all(c.transform is None for c in candidates)

    def test_cost_in_rejects_unknown_objective(self):
        cand = layer_candidates(LAYER, BATCH, w_mp_plus_plus(), WORKERS)[0]
        with pytest.raises(PlannerError):
            cand.cost_in("carbon")


class TestWidenedSpace:
    def test_transform_search_adds_candidates(self):
        config = w_mp_plus_plus()
        base = layer_candidates(LAYER, BATCH, config, WORKERS)
        widened = layer_candidates(
            LAYER, BATCH, config, WORKERS,
            StrategyKnobs(search_transforms=True),
        )
        assert len(widened) > len(base)
        assert any(not c.transform_is_default for c in widened)

    def test_batch_splits_enumerated_and_non_dividing_skipped(self):
        config = w_mp_plus_plus()
        knobs = StrategyKnobs(batch_splits=(1, 2, 3))
        candidates = layer_candidates(LAYER, BATCH, config, WORKERS, knobs)
        splits = {c.batch_split for c in candidates}
        assert splits == {1, 2}  # 3 does not divide 256

    def test_split_trades_collective_for_repetition(self):
        # Micro-batching repeats compute but pays the weight collective
        # once: the split candidate must cost more than splitting the
        # whole-batch time naively, yet its collective share shrinks.
        config = w_mp_plus_plus()
        knobs = StrategyKnobs(batch_splits=(1, 4))
        candidates = layer_candidates(LAYER, BATCH, config, WORKERS, knobs)
        by_split = {}
        for cand in candidates:
            by_split.setdefault(cand.grid, {})[cand.batch_split] = cand
        for grid_candidates in by_split.values():
            whole, split = grid_candidates[1], grid_candidates[4]
            assert split.time_s > 0
            assert split.footprint_bytes < whole.footprint_bytes


class TestCapacityFilter:
    def test_footprint_kernel_counts_worker_share(self):
        # 256 workers in 16 groups: spatial/tile elements striped over
        # all workers, weight slice per group held three ways.
        got = worker_footprint_bytes(2560, 2560, 5120, 1600, 16, 16)
        assert got == (4 * 2560 // 256) * 2 + 2 * (4 * 5120 // 256) + 3 * (
            4 * 1600 // 16
        )

    def test_paper_machine_fits_everything(self):
        candidates = layer_candidates(LAYER, BATCH, w_mp_plus_plus(), WORKERS)
        assert all(c.feasible for c in candidates)

    def test_tiny_stack_rejects_candidates(self):
        small = HardwareParams(dram_capacity_bytes=64 * 1024)
        candidates = layer_candidates(
            LAYER, BATCH, w_mp_plus_plus(), WORKERS,
            model=PerfModel(params=small),
        )
        assert not any(c.feasible for c in candidates)

    def test_capacity_frac_tightens_the_filter(self):
        candidates = layer_candidates(LAYER, BATCH, w_mp_plus_plus(), WORKERS)
        worst = max(c.footprint_bytes for c in candidates)
        frac = worst / DEFAULT_PARAMS.dram_capacity_bytes / 2
        tight = layer_candidates(
            LAYER, BATCH, w_mp_plus_plus(), WORKERS,
            StrategyKnobs(capacity_frac=frac),
        )
        assert any(not c.feasible for c in tight)

    def test_footprint_depends_on_the_grid(self):
        # Each grid resolves its own transform and weight slicing, so
        # the resident footprints must differ across the paper grids
        # (that variation is what gives the capacity filter teeth).
        candidates = layer_candidates(LAYER, BATCH, w_mp_plus_plus(), WORKERS)
        footprints = [c.footprint_bytes for c in candidates]
        assert all(fp > 0 for fp in footprints)
        assert len(set(footprints)) == len(footprints)
