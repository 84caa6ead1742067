"""Exact Cook-Toom construction of Winograd convolution transforms.

Builds the coefficient matrices ``B``, ``G``, ``A`` of the Winograd
algorithm ``F(m, r)`` (paper Equation 1):

.. math::

    y = A^T [(G w G^T) \\odot (B^T x B)] A

for 2D, or ``y = A^T [(G w) \\odot (B^T x)]`` for 1D, where ``w`` is an
``r``-tap filter, ``x`` a ``T = m + r - 1`` input segment and ``y`` the
``m`` outputs of a *correlation* (convnet-style convolution, no filter
flip).

The construction follows the classical Toom-Cook linear-convolution
derivation with one interpolation point at infinity, then transposes the
network to obtain the correlation form.  All arithmetic is performed with
:class:`fractions.Fraction` so the matrices are exact; floats are derived
views.

The 2D operators take element-major arrays: the two tile axes come
first (``(T, T, B, TH, TW, C)`` tiles, ``(r, r, I, J)`` filters), so each
one is two contiguous GEMMs (:func:`_sandwich`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Sequence

import numpy as np

from ..contracts import cost, shaped
from .points import default_points

FractionMatrix = List[List[Fraction]]


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    """Multiply two polynomials given as low-order-first coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    """Evaluate a polynomial (low-order-first coefficients) at ``x``."""
    acc = Fraction(0)
    for coeff in reversed(p):
        acc = acc * x + coeff
    return acc


def _lagrange_basis(points: Sequence[Fraction], i: int) -> List[Fraction]:
    """Coefficients of the Lagrange basis polynomial ``L_i`` over ``points``."""
    numer: List[Fraction] = [Fraction(1)]
    denom = Fraction(1)
    for k, a_k in enumerate(points):
        if k == i:
            continue
        numer = _poly_mul(numer, [-a_k, Fraction(1)])
        denom *= points[i] - a_k
    return [c / denom for c in numer]


def _master_poly(points: Sequence[Fraction]) -> List[Fraction]:
    """Monic polynomial ``M(x) = prod_k (x - a_k)`` over the finite points."""
    poly: List[Fraction] = [Fraction(1)]
    for a_k in points:
        poly = _poly_mul(poly, [-a_k, Fraction(1)])
    return poly


def _evaluation_matrix(points: Sequence[Fraction], width: int) -> FractionMatrix:
    """Toom-Cook evaluation matrix of a length-``width`` polynomial.

    One row per finite point (``[1, a, a^2, ...]``) plus a final row for
    the point at infinity which extracts the leading coefficient.
    """
    rows: FractionMatrix = []
    for a in points:
        rows.append([a**j for j in range(width)])
    rows.append([Fraction(1) if j == width - 1 else Fraction(0) for j in range(width)])
    return rows


def _interpolation_matrix(points: Sequence[Fraction]) -> FractionMatrix:
    """Toom-Cook interpolation matrix ``C`` (``T x T``).

    Maps the ``T`` point-values (finite points plus infinity) of a
    degree-``T-1`` polynomial back to its coefficients.  Column ``i`` holds
    the coefficients contributed by value ``v_i``.
    """
    size = len(points) + 1
    master = _master_poly(points)  # degree T-1, monic
    columns: List[List[Fraction]] = []
    basis = [_lagrange_basis(points, i) for i in range(len(points))]
    for i in range(len(points)):
        col = list(basis[i]) + [Fraction(0)]  # degree T-2 -> pad to T coeffs
        columns.append(col)
    # Column for the infinity value: M(x) minus its interpolant on the
    # finite points (so the finite-point columns stay exact).
    inf_col = list(master)
    for i, a_i in enumerate(points):
        m_at_ai = _poly_eval(master, a_i)
        for j in range(len(basis[i])):
            inf_col[j] -= m_at_ai * basis[i][j]
    columns.append(inf_col)
    # Transpose column list into a row-major matrix.
    return [[columns[c][r] for c in range(size)] for r in range(size)]


def _to_float(matrix: FractionMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in matrix], dtype=np.float64)


@dataclass(frozen=True)
class WinogradTransform:
    """Winograd transform ``F(m x m, r x r)`` (or 1D ``F(m, r)``).

    Attributes
    ----------
    m:
        Output size per tile (per dimension).
    r:
        Filter size (per dimension).
    tile:
        Input tile size ``T = m + r - 1`` (per dimension).
    B, G, A:
        Float coefficient matrices with shapes ``(T, T)``, ``(T, r)`` and
        ``(T, m)`` respectively, used as in Equation 1 of the paper.
    B_exact, G_exact, A_exact:
        The same matrices with exact :class:`~fractions.Fraction` entries.
        Equality and hash ignore them: :func:`make_transform`, the only
        constructor, determines them from ``(m, r)``, so a transform
        compares (and keys a memoized call) as ``(m, r)``.

    The 1D helpers act on the last axis; the 2D helpers act on the
    leading two axes (element-major layout, see :mod:`.tiling`).
    """

    m: int
    r: int
    B_exact: FractionMatrix = field(repr=False, compare=False)
    G_exact: FractionMatrix = field(repr=False, compare=False)
    A_exact: FractionMatrix = field(repr=False, compare=False)

    @property
    def tile(self) -> int:
        return self.m + self.r - 1

    # The float views are cached per transform instance: the exact
    # Fraction -> float conversion is pure, and re-running it on every
    # transform application dominated kernel time in profiles.
    # ``cached_property`` writes straight into ``__dict__``, which a
    # frozen dataclass permits (only ``__setattr__`` is blocked).
    @cached_property
    def B(self) -> np.ndarray:
        return _to_float(self.B_exact)

    @cached_property
    def G(self) -> np.ndarray:
        return _to_float(self.G_exact)

    @cached_property
    def A(self) -> np.ndarray:
        return _to_float(self.A_exact)

    # ---- 1D helpers -----------------------------------------------------
    @shaped("(...,T) -> (...,T)")
    @cost(flops="2*ELL*T**2", mem="4*ELL*T")
    def transform_input_1d(self, x: np.ndarray) -> np.ndarray:
        """``B^T x`` along the last axis (length ``T``)."""
        return np.tensordot(x, self.B, axes=([-1], [0]))

    @shaped("(...,R) -> (...,T)")
    @cost(flops="2*ELL*R*T", mem="4*ELL*T")
    def transform_weight_1d(self, w: np.ndarray) -> np.ndarray:
        """``G w`` along the last axis (length ``r``)."""
        return np.tensordot(w, self.G, axes=([-1], [1]))

    @shaped("(...,T) -> (...,M)")
    @cost(flops="2*ELL*M*T", mem="4*ELL*M")
    def inverse_transform_1d(self, Y: np.ndarray) -> np.ndarray:
        """``A^T Y`` along the last axis (length ``T``)."""
        return np.tensordot(Y, self.A, axes=([-1], [0]))

    # ---- 2D helpers (element-major: the two tile axes lead) -------------
    @shaped("(T,T,B,TH,TW,C) -> (T,T,B,TH,TW,C)")
    @cost(flops="4*B*C*TH*TW*T**3", mem="8*B*C*TH*TW*T**2")
    def transform_input(self, x: np.ndarray) -> np.ndarray:
        """``B^T x B`` over the leading two axes (each length ``T``)."""
        t, _, b, th, tw, c = x.shape
        out = _sandwich(self.B.T, x.reshape(t, t, b * th * tw * c))
        return out.reshape(t, t, b, th, tw, c)

    @shaped("(R,R,I,J) -> (T,T,I,J)")
    @cost(flops="2*I*J*R*T*(R+T)", mem="4*I*J*T*(R+T)")
    def transform_weight(self, w: np.ndarray) -> np.ndarray:
        """``G w G^T`` over the leading two axes (each length ``r``)."""
        r, _, i, j = w.shape
        out = _sandwich(self.G, w.reshape(r, r, i * j))
        return out.reshape(self.tile, self.tile, i, j)

    @shaped("(T,T,B,TH,TW,C) -> (M,M,B,TH,TW,C)")
    @cost(flops="2*B*C*TH*TW*M*T*(M+T)", mem="4*B*C*TH*TW*M*(M+T)")
    def inverse_transform(self, Y: np.ndarray) -> np.ndarray:
        """``A^T Y A`` over the leading two axes (each length ``T``)."""
        t, _, b, th, tw, c = Y.shape
        out = _sandwich(self.A.T, Y.reshape(t, t, b * th * tw * c))
        return out.reshape(self.m, self.m, b, th, tw, c)

    # ---- transposed (gradient) operators --------------------------------
    @shaped("(M,M,B,TH,TW,C) -> (T,T,B,TH,TW,C)")
    @cost(flops="2*B*C*TH*TW*M*T*(M+T)", mem="4*B*C*TH*TW*T*(M+T)")
    def inverse_transform_transposed(self, dy: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`inverse_transform`: maps ``m x m`` gradients
        to ``T x T`` Winograd-domain gradients (``A dy A^T``)."""
        m, _, b, th, tw, c = dy.shape
        out = _sandwich(self.A, dy.reshape(m, m, b * th * tw * c))
        return out.reshape(self.tile, self.tile, b, th, tw, c)

    @shaped("(T,T,B,TH,TW,C) -> (T,T,B,TH,TW,C)")
    @cost(flops="4*B*C*TH*TW*T**3", mem="8*B*C*TH*TW*T**2")
    def transform_input_transposed(self, dX: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`transform_input`: maps ``T x T``
        Winograd-domain input gradients back to spatial tiles
        (``B dX B^T``)."""
        t, _, b, th, tw, c = dX.shape
        out = _sandwich(self.B, dX.reshape(t, t, b * th * tw * c))
        return out.reshape(t, t, b, th, tw, c)

    @shaped("(T,T,I,J) -> (R,R,I,J)")
    @cost(flops="2*I*J*R*T*(R+T)", mem="4*I*J*R*(R+T)")
    def transform_weight_transposed(self, dW: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`transform_weight`: maps ``T x T``
        Winograd-domain weight gradients to spatial ``r x r`` gradients
        (``G^T dW G``)."""
        t, _, i, j = dW.shape
        out = _sandwich(self.G.T, dW.reshape(t, t, i * j))
        return out.reshape(self.r, self.r, i, j)


@shaped("(P,Q), (Q,Q,N) -> (P,P,N)")
@cost(flops="2*N*P*Q*(P+Q)", mem="4*N*P*(P+Q)")
def _sandwich(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat x mat^T`` on the two leading axes of ``x``, first axis first.

    The first axis is one GEMM on the contiguous ``(Q, Q*N)`` view; the
    second is ``P`` GEMMs batched over the first.  Each output element is
    the same length-``Q`` dot products, in the same order, as contracting
    a tile-major ``(..., Q, Q)`` array axis ``-2`` then axis ``-1``.
    """
    p, q = mat.shape
    n = x.shape[2]
    y = mat @ x.reshape(q, q * n)
    return np.matmul(mat, y.reshape(p, q, n))


@lru_cache(maxsize=None)
def make_transform(m: int, r: int) -> WinogradTransform:
    """Construct the Winograd transform ``F(m, r)`` with default points.

    Parameters
    ----------
    m:
        Outputs produced per tile (per dimension); must be positive.
    r:
        Filter taps (per dimension); must be positive.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    tile = m + r - 1
    points = default_points(tile - 1)

    # Toom-Cook for *linear convolution* of an m-vector with an r-vector:
    #   s = C [(V_r g) . (V_m u)]
    # Transposing the network (fixed g) yields the correlation form used by
    # convnets:  y = V_m^T [(V_r g) . (C^T d)]  with d of length T.
    v_m = _evaluation_matrix(points, m)  # T x m  -> A
    v_r = _evaluation_matrix(points, r)  # T x r  -> G
    c = _interpolation_matrix(points)  # T x T  -> B (since B^T = C^T)

    return WinogradTransform(m=m, r=r, B_exact=c, G_exact=v_r, A_exact=v_m)
