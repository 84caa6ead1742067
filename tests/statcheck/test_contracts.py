"""Tests for the ``@shaped`` / ``@partitioned`` runtime contract layer.

The decorators are zero-cost unless ``REPRO_CHECK_SHAPES=1``; tests
force the checks with :func:`repro.contracts.checked` /
:func:`repro.contracts.checked_partition` so they run regardless of the
environment, plus one subprocess test of the env-var path itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.contracts import (
    ContractSyntaxError,
    PartitionContractError,
    ShapeContractError,
    checked,
    checked_partition,
    cost,
    parse_spec,
    shaped,
    validate_partition,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSpecParsing:
    def test_basic_spec(self):
        contract = parse_spec("(N,C,H,W), (K,C,R,R) -> (N,K,P)")
        assert [a.kind for a in contract.args] == ["array", "array"]
        assert len(contract.returns) == 1
        assert len(contract.args[0].dims) == 4

    def test_skip_scalar_and_ellipsis_entries(self):
        contract = parse_spec("_, P, (...,T,T) -> (...,M,M)")
        assert [a.kind for a in contract.args] == ["skip", "scalar", "array"]
        assert contract.args[2].ellipsis
        assert contract.returns[0].ellipsis

    def test_requires_arrow(self):
        with pytest.raises(ContractSyntaxError):
            parse_spec("(N,C)")

    def test_rejects_double_arrow(self):
        with pytest.raises(ContractSyntaxError):
            parse_spec("(N) -> (N) -> (N)")

    def test_rejects_unbalanced_parens(self):
        with pytest.raises(ContractSyntaxError):
            parse_spec("(N,C -> (N)")

    def test_rejects_bad_dim_expression(self):
        with pytest.raises(ContractSyntaxError):
            parse_spec("(N, foo(C)) -> (N)")


class TestRuntimeChecks:
    def test_matching_call_passes(self):
        @shaped("(B,C,H,W) -> (B,C)")
        def pool(x):
            return x.mean(axis=(2, 3))

        out = checked(pool)(np.zeros((2, 3, 4, 5)))
        assert out.shape == (2, 3)

    def test_wrong_rank_rejected(self):
        @shaped("(B,C,H,W) -> (B,C)")
        def pool(x):
            return x.mean(axis=(2, 3))

        with pytest.raises(ShapeContractError, match="rank"):
            checked(pool)(np.zeros((2, 3, 4)))

    def test_repeated_symbol_mismatch_rejected(self):
        @shaped("(N,N) -> (N)")
        def diag(x):
            return np.diagonal(x)

        checked(diag)(np.eye(3))
        with pytest.raises(ShapeContractError):
            checked(diag)(np.zeros((3, 4)))

    def test_affine_dimension_solved(self):
        @shaped("(B,C,2*HH,2*WW) -> (B,C,HH,WW)")
        def pool2x2(x):
            b, c, h, w = x.shape
            return x.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))

        assert checked(pool2x2)(np.zeros((1, 2, 6, 8))).shape == (1, 2, 3, 4)
        with pytest.raises(ShapeContractError):
            checked(pool2x2)(np.zeros((1, 2, 5, 8)))  # odd height

    def test_return_shape_enforced(self):
        @shaped("(N) -> (N,N)")
        def bad(x):
            return np.zeros((len(x), len(x) + 1))

        with pytest.raises(ShapeContractError, match="return"):
            checked(bad)(np.zeros(3))

    def test_tuple_return_arity(self):
        @shaped("(N) -> (N), (N)")
        def split(x):
            # Deliberate arity violation for the runtime check below.
            return x, x, x  # statcheck: ignore[SHAPE002]

        with pytest.raises(ShapeContractError, match="2 values"):
            checked(split)(np.zeros(3))

    def test_ellipsis_matches_any_leading(self):
        @shaped("(...,T,T) -> (...,T,T)")
        def ident(x):
            return x

        f = checked(ident)
        assert f(np.zeros((4, 4))).shape == (4, 4)
        assert f(np.zeros((2, 3, 4, 4))).shape == (2, 3, 4, 4)
        with pytest.raises(ShapeContractError):
            f(np.zeros((2, 3, 4, 5)))

    def test_real_kernel_contract(self):
        from repro.winograd.direct import conv2d_forward

        f = checked(conv2d_forward)
        y = f(np.zeros((2, 3, 8, 8)), np.zeros((4, 3, 3, 3)), 1)
        assert y.shape == (2, 4, 8, 8)
        with pytest.raises(ShapeContractError):
            # channel mismatch: x has 3 input channels, w claims 5.
            f(np.zeros((2, 3, 8, 8)), np.zeros((4, 5, 3, 3)), 1)


class TestZeroCost:
    def test_decorator_is_identity_when_disabled(self):
        if os.environ.get("REPRO_CHECK_SHAPES", "").lower() in {"1", "true", "yes", "on"}:
            pytest.skip("runtime checks enabled in this environment")

        def raw(x):
            return x

        decorated = shaped("(N) -> (N)")(raw)
        assert decorated is raw
        assert decorated.__shape_spec__ == "(N) -> (N)"

    def test_cost_attaches_nothing(self):
        def raw(x):
            return x

        attributes = dict(vars(raw))
        assert cost(flops="2*N", where="M=N")(raw) is raw
        assert vars(raw) == attributes

    def test_spec_parsed_only_when_checked(self):
        if os.environ.get("REPRO_CHECK_SHAPES", "").lower() in {"1", "true", "yes", "on"}:
            pytest.skip("runtime checks enabled in this environment")

        # A malformed spec is statcheck's to report (SHAPE001); the
        # decorator only records it, and the runtime checker parses it.
        decorated = shaped("(N")(lambda x: x)
        with pytest.raises(ContractSyntaxError):
            checked(decorated)

    def test_env_var_enables_wrapping(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.contracts import ShapeContractError
            from repro.winograd.direct import conv2d_forward
            conv2d_forward(np.zeros((1, 2, 6, 6)), np.zeros((3, 2, 3, 3)), 1)
            try:
                conv2d_forward(np.zeros((1, 2, 6, 6)), np.zeros((3, 9, 3, 3)), 1)
            except ShapeContractError:
                print("CAUGHT")
            else:
                raise SystemExit("contract violation not caught")
            """
        )
        env = dict(os.environ, REPRO_CHECK_SHAPES="1", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "CAUGHT" in proc.stdout


class TestPartitionContracts:
    def test_round_robin_partition_passes(self):
        from repro.core.partition import partition_elements

        parts = checked_partition(partition_elements)(16, 5)
        assert sorted(e for part in parts for e in part) == list(range(16))

    def test_batch_shards_pass(self):
        from repro.core.partition import shard_batch

        shards = checked_partition(shard_batch)(12, 4)
        assert [len(s) for s in shards] == [3, 3, 3, 3]

    def test_overlap_rejected(self):
        with pytest.raises(PartitionContractError, match="owned by groups"):
            validate_partition([[0, 1], [1, 2]], domain=3, parts=2, where="overlap")

    def test_gap_rejected(self):
        with pytest.raises(PartitionContractError, match="cover"):
            validate_partition([[0], [2]], domain=3, parts=2, where="gap")

    def test_wrong_part_count_rejected(self):
        with pytest.raises(PartitionContractError, match="contract says 2"):
            validate_partition([[0, 1, 2]], domain=3, parts=2, where="count")

    def test_partitioned_validates_param_names(self):
        from repro.contracts import partitioned

        with pytest.raises(ContractSyntaxError):
            @partitioned(domain="nope", parts="ng")
            def f(t2, ng):
                return [[0]]
