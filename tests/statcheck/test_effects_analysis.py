"""Unit tests for the effect collector, interprocedural analysis, the
faults-guard pass and the collective conservation checker."""

from __future__ import annotations

import ast
import textwrap

from repro.statcheck.effects import analyze_source
from repro.statcheck.effects.collect import FunctionInfo, _FunctionAnalyzer, _param_names
from repro.statcheck.effects.comm import check_collectives
from repro.statcheck.effects.guards import check_guards


def summaries(source: str):
    analysis = analyze_source(textwrap.dedent(source))
    return {s.qualname: s for s in analysis.summaries.values()}, analysis


def atoms(summary):
    return set(summary.transitive.atoms)


# ---------------------------------------------------------------------------
# intraprocedural collection
# ---------------------------------------------------------------------------


class TestCollector:
    def test_pure_function_is_bottom(self):
        s, _ = summaries(
            """
            def f(x, y):
                return x + y * 2
            """
        )
        assert not atoms(s["f"])

    def test_argument_item_store(self):
        s, _ = summaries(
            """
            def f(xs):
                xs[0] = 1
            """
        )
        assert ("mutates", "xs") in atoms(s["f"])

    def test_argument_attr_store(self):
        s, _ = summaries(
            """
            def f(cfg):
                cfg.tile = 4
            """
        )
        assert ("mutates", "cfg") in atoms(s["f"])

    def test_numpy_inplace_aug_assign(self):
        s, _ = summaries(
            """
            def f(a):
                a += 1
                return a
            """
        )
        assert ("mutates", "a") in atoms(s["f"])

    def test_aug_assign_does_not_alias_operand(self):
        # `acc += view_of_param` reads the view; it must not make acc
        # alias the parameter (an overlap-add accumulator's shape).
        s, _ = summaries(
            """
            def f(d, n):
                acc = make()
                for i in range(n):
                    acc += d[i]
                return acc
            """
        )
        assert ("mutates", "d") not in atoms(s["f"])

    def test_view_mutation_reaches_parameter(self):
        s, _ = summaries(
            """
            def f(a):
                view = a[1:]
                view[0] = 9
            """
        )
        assert ("mutates", "a") in atoms(s["f"])

    def test_method_mutator_on_parameter(self):
        s, _ = summaries(
            """
            def f(xs):
                xs.append(3)
            """
        )
        assert ("mutates", "xs") in atoms(s["f"])

    def test_out_kwarg_mutates(self):
        s, _ = summaries(
            """
            import numpy as np
            def f(a, b, dst):
                np.add(a, b, out=dst)
            """
        )
        assert ("mutates", "dst") in atoms(s["f"])

    def test_mutable_global_read_and_write(self):
        s, _ = summaries(
            """
            CACHE = {}
            def get(k):
                return CACHE.get(k)
            def put(k, v):
                CACHE[k] = v
            """
        )
        assert ("global-read", "CACHE") in atoms(s["get"])
        assert ("global-write", "CACHE") in atoms(s["put"])

    def test_global_declared_scalar_is_mutable_state(self):
        s, _ = summaries(
            """
            _enabled = False
            def on():
                global _enabled
                _enabled = True
            def check():
                return _enabled
            """
        )
        assert ("global-write", "_enabled") in atoms(s["on"])
        assert ("global-read", "_enabled") in atoms(s["check"])

    def test_env_clock_io_rng(self):
        s, _ = summaries(
            """
            import os, time
            import numpy as np
            def env(): return os.environ.get("X")
            def clock(): return time.perf_counter()
            def io(p): return open(p).read()
            def rng(): return np.random.rand(3)
            def seeded(): return np.random.default_rng(0)
            """
        )
        assert any(k == "env" for k, _ in atoms(s["env"]))
        assert any(k == "clock" for k, _ in atoms(s["clock"]))
        assert any(k == "io" for k, _ in atoms(s["io"]))
        assert any(k == "rng" for k, _ in atoms(s["rng"]))
        assert not atoms(s["seeded"])  # seeded construction is pure

    def test_threaded_generator_draw_is_receiver_mutation(self):
        s, _ = summaries(
            """
            def f(rng):
                return rng.integers(10)
            """
        )
        assert ("mutates", "rng") in atoms(s["f"])
        assert not any(k == "rng" for k, _ in atoms(s["f"]))

    def test_in_function_import_canonicalizes(self):
        s, _ = summaries(
            """
            def f(heap, x):
                import heapq
                heapq.heappush(heap, x)
            """
        )
        assert ("mutates", "heap") in atoms(s["f"])
        assert not s["f"].transitive.unresolved

    def test_nested_closure_folds_into_parent(self):
        s, _ = summaries(
            """
            def f(xs):
                def inner():
                    xs.append(1)
                inner()
                return xs
            """
        )
        assert ("mutates", "xs") in atoms(s["f"])

    def test_effect_free_decorator_vouches(self):
        s, _ = summaries(
            """
            from repro.perf import effect_free
            _counters = {}
            @effect_free
            def bump(name):
                _counters[name] = _counters.get(name, 0) + 1
            """
        )
        assert s["bump"].vouched
        assert not atoms(s["bump"])

    def test_one_walk_finds_every_binding_form(self):
        # One def with every binding form the analyzer's scope scan
        # handles; the three sets are the three separate walks' output.
        fn = ast.parse(textwrap.dedent(
            """
            def outer(p, *rest, q=1, **kw):
                global x
                import a.b as c
                from m import n
                import os.path
                x = 1
                total = [w for w in p]
                del y
                f = lambda la, lb=2: la + lb
                try:
                    pass
                except E as e:
                    pass
                def inner(ia, *iv, **ik):
                    return ia
                class Inner:
                    pass
            """
        )).body[0]
        info = FunctionInfo(
            name=fn.name, qualname=fn.name, lineno=fn.lineno,
            params=_param_names(fn), is_method=False, decorators=(),
        )
        analyzer = _FunctionAnalyzer(fn, info, {}, set())
        assert analyzer.global_decls == {"x"}
        assert analyzer.local_bound == {
            "Inner", "c", "e", "f", "ia", "ik", "inner", "iv", "kw", "la",
            "lb", "n", "os", "p", "q", "rest", "total", "w", "y",
        }
        assert analyzer.import_bound == {"c", "n", "os"}


# ---------------------------------------------------------------------------
# interprocedural propagation
# ---------------------------------------------------------------------------


class TestInterprocedural:
    def test_mutation_translates_through_call(self):
        s, _ = summaries(
            """
            def helper(buf):
                buf[0] = 1
            def top(data):
                helper(data)
            """
        )
        assert ("mutates", "data") in atoms(s["top"])
        assert s["top"].origin_of(("mutates", "data")) == "helper"

    def test_fresh_argument_mutation_stays_local(self):
        # An empty literal carries no roots, so the callee's mutation
        # dies at the call site.  (A literal *holding* a parameter
        # conservatively inherits that parameter's roots instead.)
        s, _ = summaries(
            """
            def helper(buf):
                buf.append(1)
            def top(n):
                helper([])
                return n
            """
        )
        assert not atoms(s["top"])

    def test_keyword_argument_translation(self):
        s, _ = summaries(
            """
            def helper(a, b):
                b[0] = 1
            def top(x, y):
                helper(b=y, a=x)
            """
        )
        assert ("mutates", "y") in atoms(s["top"])
        assert ("mutates", "x") not in atoms(s["top"])

    def test_method_receiver_translation(self):
        s, _ = summaries(
            """
            class Sim:
                def __init__(self):
                    self.events = []
                def send(self, m):
                    self.events.append(m)
            def drive(sim, m):
                sim.send(m)
            """
        )
        assert ("mutates", "sim") in atoms(s["drive"])

    def test_constructor_self_mutation_dropped(self):
        s, _ = summaries(
            """
            class Box:
                def __init__(self, v):
                    self.v = v
            def make(v):
                return Box(v)
            """
        )
        assert not atoms(s["make"])

    def test_recursive_cycle_converges(self):
        s, _ = summaries(
            """
            STATE = {}
            def even(n, xs):
                if n == 0:
                    xs.append(STATE.get("x"))
                    return
                odd(n - 1, xs)
            def odd(n, xs):
                even(n - 1, xs)
            """
        )
        for name in ("even", "odd"):
            assert ("mutates", "xs") in atoms(s[name])
            assert ("global-read", "STATE") in atoms(s[name])

    def test_transitive_env_attribution(self):
        s, _ = summaries(
            """
            import os
            def leaf():
                return os.environ.get("SEED")
            def mid():
                return leaf()
            def top():
                return mid()
            """
        )
        atom = next(a for a in atoms(s["top"]) if a[0] == "env")
        assert s["top"].origin_of(atom) == "leaf"

    def test_unknown_callee_is_visible_not_impure(self):
        s, _ = summaries(
            """
            def f(x):
                return mystery(x)
            """
        )
        assert s["f"].transitive.unresolved
        assert not s["f"].transitive.impure

    def test_stats_shape(self):
        _, analysis = summaries(
            """
            def a(): return 1
            def b(): return a()
            """
        )
        stats = analysis.stats
        assert stats["functions"] == 2
        assert stats["call_sites_resolved"] == stats["call_sites"] == 1
        assert stats["pure"] == 2

    def test_summary_json_roundtrips(self):
        s, _ = summaries(
            """
            STATE = []
            def f(x):
                STATE.append(x)
            """
        )
        payload = s["f"].to_json()
        assert payload["qualname"] == "f"
        assert payload["pure"] is False
        assert ["global-write", "STATE", "f"] in payload["transitive"]


# ---------------------------------------------------------------------------
# faults-guard pass
# ---------------------------------------------------------------------------


def guard_findings(source: str):
    return check_guards(ast.parse(textwrap.dedent(source)))


class TestGuards:
    def test_unguarded_deref_fires(self):
        found = guard_findings(
            """
            def f(sim):
                sim.faults.on_send(1)
            """
        )
        assert [(g.chain, g.attr) for g in found] == [("sim.faults", "on_send")]

    def test_store_context_deref_fires(self):
        found = guard_findings(
            """
            class S:
                def step(self):
                    self.sim.faults.retransmits += 1
            """
        )
        assert len(found) == 1

    def test_is_not_none_guard_passes(self):
        assert not guard_findings(
            """
            def f(sim):
                faults = sim.faults
                if faults is not None:
                    faults.on_send(1)
            """
        )

    def test_is_none_early_return_guards_rest(self):
        assert not guard_findings(
            """
            def f(sim):
                faults = sim.faults
                if faults is None:
                    return 0
                return faults.delivery_time(1.0)
            """
        )

    def test_else_branch_of_positive_guard_fires(self):
        found = guard_findings(
            """
            def f(sim):
                if sim.faults is not None:
                    pass
                else:
                    sim.faults.on_send(1)
            """
        )
        assert len(found) == 1

    def test_faults_parameter_is_exempt(self):
        assert not guard_findings(
            """
            def handle(packet, faults):
                faults.on_drop(packet)
            """
        )

    def test_reassignment_invalidates_guard(self):
        found = guard_findings(
            """
            def f(sim, other):
                faults = sim.faults
                if faults is not None:
                    faults = other.faults
                    faults.on_send(1)
            """
        )
        assert len(found) == 1

    def test_real_netsim_sources_are_clean(self):
        from pathlib import Path

        import repro.netsim as netsim

        for path in sorted(Path(netsim.__file__).parent.glob("*.py")):
            assert not check_guards(ast.parse(path.read_text())), path


# ---------------------------------------------------------------------------
# collective conservation pass
# ---------------------------------------------------------------------------


def _collectives_source() -> str:
    from pathlib import Path

    import repro.netsim.collectives as mod

    return Path(mod.__file__).read_text()


class TestComm:
    def test_real_collectives_conserve(self):
        assert not check_collectives(ast.parse(_collectives_source()))

    def test_real_tree_collective_conserves(self):
        from pathlib import Path

        import repro.netsim.tree_collective as mod

        src = Path(mod.__file__).read_text()
        assert not check_collectives(ast.parse(src))

    def test_step_off_by_one_detected(self):
        src = _collectives_source().replace(
            "total_steps = 2 * (n - 1)", "total_steps = 2 * n - 1"
        )
        found = check_collectives(ast.parse(src))
        assert any(
            f.name == "ring_allreduce" and "conservation" in f.message
            for f in found
        )

    def test_nontermination_detected(self):
        src = _collectives_source().replace(
            "if step >= self.total_steps:", "if False:"
        )
        found = check_collectives(ast.parse(src))
        assert any(
            f.name == "ring_allreduce" and "terminate" in f.message
            for f in found
        )

    def test_incomplete_result_detected(self):
        src = _collectives_source().replace(
            "completed=self.chains_done == self.chains_expected,",
            "completed=False,",
        )
        found = check_collectives(ast.parse(src))
        assert any(
            f.name == "ring_allreduce" and "completed" in f.message
            for f in found
        )

    def test_non_collective_modules_are_skipped(self):
        assert not check_collectives(
            ast.parse("def f(sim, nodes):\n    return 0\n")
        )
