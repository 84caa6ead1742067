"""Unit tests for the symbolic cost abstract interpreter itself.

Exercises the derivation machinery below the COST rules: numpy
intrinsic costs, closed-form loop summation, callee summaries,
ceildiv-identity equivalence, fast-path alternatives and the ellipsis
(``ELL``) leading-dimension convention.
"""

from __future__ import annotations

import ast
import textwrap

from repro.statcheck import check_source
from repro.statcheck.interp import ContractPass
from repro.statcheck.symdims import parse_dim
from repro.statcheck.shapes import dims_equivalent

COST_FAMILY = ["COST001", "COST002", "COST003", "COST004", "COST005"]

HEADER = "import numpy as np\nfrom repro.contracts import cost, shaped\n"


def run(body: str) -> ContractPass:
    source = HEADER + textwrap.dedent(body)
    return ContractPass("<string>", ast.parse(source))


def derived(body: str, qualname: str):
    cost_pass = run(body)
    assert cost_pass.events == [], cost_pass.events
    return cost_pass.derived[qualname]


def check(body: str):
    return check_source(HEADER + textwrap.dedent(body), select=COST_FAMILY)


class TestIntrinsics:
    def test_matmul_flops_and_store(self):
        d = derived(
            '''
            @shaped("(B,N), (N,K) -> (B,K)")
            @cost(flops="2*B*N*K", mem="4*B*K")
            def f(a, b):
                return np.matmul(a, b)
            ''',
            "f",
        )
        assert dims_equivalent(d.flops, parse_dim("2*B*N*K"))
        assert dims_equivalent(d.mem, parse_dim("4*B*K"))

    def test_matmul_operator_matches_np_matmul(self):
        # The `a @ b` operator must charge exactly like np.matmul.
        d = derived(
            '''
            @shaped("(B,N), (N,K) -> (B,K)")
            @cost(flops="2*B*N*K", mem="4*B*K")
            def f(a, b):
                return a @ b
            ''',
            "f",
        )
        assert dims_equivalent(d.flops, parse_dim("2*B*N*K"))
        assert dims_equivalent(d.mem, parse_dim("4*B*K"))

    def test_elementwise_and_views_cost(self):
        # Transpose/reshape are free views; the add pays one flop and
        # one 4-byte store per output element.
        assert check(
            '''
            @shaped("(N,K) -> (K,N)")
            @cost(flops="N*K", mem="4*N*K")
            def f(x):
                return (x + x).transpose(1, 0)
            '''
        ) == []

    def test_scalar_operands_and_infinite_literals_are_values(self):
        # Every function is walked now: a ufunc over scalars and an
        # infinite float literal are unknown values, not crashes.
        assert check(
            '''
            @shaped("(N), S -> (N)")
            @cost(flops="N", mem="4*N")
            def f(x, s):
                cap = np.maximum(s, 1)
                big = 1e999
                return x + 0
            '''
        ) == []

    def test_tensordot_negative_axes_on_ellipsis_operand(self):
        # The cook_toom idiom: a (...)-leading array contracted over its
        # trailing axes with an explicit matrix.
        assert check(
            '''
            @shaped("(...,T,T), (T,K) -> (...,T,K)")
            @cost(flops="2*ELL*K*T**2", mem="4*ELL*K*T")
            def f(x, g):
                return np.tensordot(x, g, axes=([-1], [0]))
            '''
        ) == []


class TestControlFlow:
    def test_loop_summed_in_closed_form(self):
        assert check(
            '''
            @shaped("(N,K), S -> (N,K)")
            @cost(flops="S*N*K", mem="4*S*N*K")
            def f(x, steps):
                y = x
                for _ in range(steps):
                    y = y + x
                return y
            '''
        ) == []

    def test_with_statement_body_runs_inline(self):
        # The kernel idiom: ``with phase("..."):`` around the hot loop.
        assert check(
            '''
            def phase(name):
                ...

            @shaped("(N,K) -> (N,K)")
            @cost(flops="N*K", mem="4*N*K")
            def f(x):
                with phase("kernel"):
                    y = x + x
                return y
            '''
        ) == []

    def test_fast_path_alternatives_checked(self):
        # Both the early return and the main path must match the single
        # declaration; a free early return here disagrees with N*K.
        findings = check(
            '''
            @shaped("(N,K), S -> (N,K)")
            @cost(flops="N*K", mem="4*N*K")
            def f(x, flag):
                if flag == 0:
                    return x
                return x + x
            '''
        )
        assert [f.rule for f in findings] == ["COST001", "COST001"]


class TestInterprocedural:
    def test_callee_summary_substituted(self):
        assert check(
            '''
            @shaped("(B,N), (N,K) -> (B,K)")
            @cost(flops="2*B*N*K", mem="4*B*K")
            def inner(a, b):
                return np.matmul(a, b)

            @shaped("(B,N), (N,K) -> (B,K)")
            @cost(flops="2*B*N*K + B*K", mem="8*B*K")
            def outer(a, b):
                return inner(a, b) + 0.0
            '''
        ) == []

    def test_assumed_summary_trusted(self):
        assert check(
            '''
            @shaped("(N,K) -> (N,K)")
            @cost(flops="7*N*K", mem="4*N*K", assume=True)
            def opaque(x):
                return _extern(x)

            @shaped("(N,K) -> (N,K)")
            @cost(flops="7*N*K", mem="4*N*K")
            def wrapper(x):
                return opaque(x)
            '''
        ) == []


class TestEquivalence:
    def test_ceildiv_identity_reconciled(self):
        # ceildiv((TH-1)*M + 1, M) == TH for M >= 1: structural forms
        # differ, the sampled-evaluation equivalence identifies them.
        a = parse_dim("ceildiv((TH-1)*M + 1, M)")
        b = parse_dim("TH")
        assert dims_equivalent(a, b)

    def test_where_chain_closes_declared_symbols(self):
        assert check(
            '''
            @shaped("(B,N) -> (B,N)")
            @cost(flops="H*N", mem="4*B*N", where="H=B")
            def f(x):
                return x * 2.0
            '''
        ) == []


class TestShapeSemantics:
    """The interpreter is SHAPE002's only shape source: numpy's own
    shape rules, checked through the derived costs."""

    def test_array_unpacking_yields_rows(self):
        # `a, b = x` iterates axis 0: both targets are (K,) rows.
        assert check(
            '''
            @shaped("(N,K) -> (K)")
            @cost(flops="K", mem="4*K")
            def f(x):
                a, b = x
                return a + b
            '''
        ) == []

    def test_negative_stop_slice_counts_from_both_ends(self):
        # x[1:-1] on (N) has N - 2 elements, not N - 1.
        assert check(
            '''
            @shaped("(N) -> (N-2)")
            @cost(flops="N-2", mem="4*(N-2)")
            def f(x):
                return x[1:-1] + 0
            '''
        ) == []

    def test_none_index_adds_an_axis(self):
        # x[None] on (N, K) is (1, N, K): the None index drops nothing.
        assert check(
            '''
            @shaped("(N,K) -> (1,N,K)")
            @cost(flops="N*K", mem="4*N*K")
            def f(x):
                return x[None] + 0
            '''
        ) == []

    def test_nested_slice_split_reported_once(self):
        # Judged once, in the innermost function that makes the split.
        findings = check_source(
            textwrap.dedent(
                '''
                def outer(message_bytes, n):
                    def inner():
                        slice_bytes = message_bytes // n
                        return slice_bytes
                    return inner()
                '''
            ),
            select=["SHAPE006"],
        )
        assert [(f.rule, f.line) for f in findings] == [("SHAPE006", 4)]
