"""The DET rule family on minimal sources."""

import textwrap

from repro.statcheck import check_source

DETS = ["DET001", "DET002", "DET003", "DET004", "DET005"]


def findings(source, select=DETS):
    return [
        (f.rule, f.line)
        for f in check_source(textwrap.dedent(source), select=select)
    ]


class TestUnseededRandom:
    def test_unseeded_default_rng(self):
        assert findings(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        ) == [("DET001", 3)]

    def test_seeded_default_rng_is_quiet(self):
        assert findings(
            """
            import numpy as np
            rng = np.random.default_rng(1234)
            """
        ) == []

    def test_alias_resolution(self):
        assert findings(
            """
            from numpy.random import default_rng
            rng = default_rng()
            """
        ) == [("DET001", 3)]

    def test_legacy_numpy_global_state(self):
        assert findings(
            """
            import numpy as np
            x = np.random.rand(3)
            np.random.seed(0)
            """
        ) == [("DET001", 3), ("DET001", 4)]

    def test_stdlib_random(self):
        assert findings(
            """
            import random
            x = random.random()
            """
        ) == [("DET001", 3)]

    def test_relative_import_is_not_stdlib_random(self):
        # A package module named `random` is not the stdlib one.
        assert findings(
            """
            from .random import shuffle
            shuffle(x)
            """
        ) == []

    def test_generator_methods_are_quiet(self):
        # Drawing from an explicit Generator object is the sanctioned way.
        assert findings(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.standard_normal(4)
            """
        ) == []

    def test_unrelated_random_attribute_is_quiet(self):
        assert findings(
            """
            class Sampler:
                def random(self):
                    return 0.5

            s = Sampler()
            x = s.random()
            """
        ) == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        assert findings(
            """
            for item in {1, 2, 3}:
                print(item)
            """
        ) == [("DET002", 2)]

    def test_for_over_tracked_set_name(self):
        assert findings(
            """
            ready = set(range(4))
            for task in ready:
                task()
            """
        ) == [("DET002", 3)]

    def test_comprehension_over_set(self):
        assert findings(
            """
            names = {"a", "b"}
            order = [n for n in names]
            """
        ) == [("DET002", 3)]

    def test_list_of_set_union(self):
        assert findings(
            """
            a = {1}
            b = {2}
            order = list(a | b)
            """
        ) == [("DET002", 4)]

    def test_sorted_set_is_quiet(self):
        assert findings(
            """
            ready = {3, 1, 2}
            for task in sorted(ready):
                print(task)
            """
        ) == []

    def test_rebound_name_is_forgotten(self):
        assert findings(
            """
            items = {1, 2}
            items = sorted(items)
            for x in items:
                print(x)
            """
        ) == []


class TestFloatTimeEquality:
    def test_equality_between_seconds(self):
        assert findings(
            """
            def f(start_seconds, finish_seconds):
                return start_seconds == finish_seconds
            """
        ) == [("DET003", 3)]

    def test_ordering_comparison_is_fine(self):
        assert findings(
            """
            def f(start_seconds, finish_seconds):
                return start_seconds < finish_seconds
            """
        ) == []

    def test_equality_with_unknown_side_is_quiet(self):
        assert findings(
            """
            def f(start_seconds, sentinel):
                return start_seconds == sentinel
            """
        ) == []


class TestIdentityOrdering:
    def test_id_call(self):
        assert findings(
            """
            def key(layer):
                return id(layer)
            """
        ) == [("DET004", 3)]

    def test_method_named_id_is_quiet(self):
        assert findings(
            """
            def key(layer):
                return layer.id(3)
            """
        ) == []


class TestConstantSeedFallback:
    def test_or_fallback(self):
        assert findings(
            """
            import numpy as np

            def f(rng=None):
                rng = rng or np.random.default_rng(0)
                return rng
            """
        ) == [("DET005", 5)]

    def test_ternary_fallback(self):
        assert findings(
            """
            import numpy as np

            def f(rng=None):
                rng = rng if rng is not None else np.random.default_rng(42)
                return rng
            """
        ) == [("DET005", 5)]

    def test_explicit_seed_argument_is_quiet(self):
        # Deriving the generator from a caller-chosen seed is fine: the
        # streams are only shared if the caller shares seeds.
        assert findings(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        ) == []


class TestWallClockInSimulation:
    """DET006 — host-clock reads inside the simulated-time packages."""

    def det6(self, source, path):
        return [
            (f.rule, f.line)
            for f in check_source(
                textwrap.dedent(source), path=path, select=["DET006"]
            )
        ]

    def test_time_time_in_netsim_flagged(self):
        assert self.det6(
            """
            import time
            t = time.time()
            """,
            path="src/repro/netsim/engine.py",
        ) == [("DET006", 3)]

    def test_perf_counter_in_faults_flagged(self):
        assert self.det6(
            """
            import time
            t = time.perf_counter()
            """,
            path="src/repro/faults/injector.py",
        ) == [("DET006", 3)]

    def test_from_import_alias_resolved(self):
        assert self.det6(
            """
            from time import perf_counter as clock
            t = clock()
            """,
            path="src/repro/netsim/collectives.py",
        ) == [("DET006", 3)]

    def test_relative_module_named_time_quiet(self):
        assert self.det6(
            """
            from . import time
            t = time.time()
            """,
            path="src/repro/netsim/pacing.py",
        ) == []

    def test_datetime_now_flagged(self):
        assert self.det6(
            """
            import datetime
            t = datetime.datetime.now()
            """,
            path="src/repro/faults/plan.py",
        ) == [("DET006", 3)]

    def test_outside_simulation_packages_quiet(self):
        assert self.det6(
            """
            import time
            t = time.time()
            """,
            path="src/repro/perf/bench.py",
        ) == []

    def test_simulated_time_attribute_quiet(self):
        # `sim.now` and locals named time are not host-clock reads.
        assert self.det6(
            """
            def f(sim):
                time = sim.now
                return time
            """,
            path="src/repro/netsim/engine.py",
        ) == []
