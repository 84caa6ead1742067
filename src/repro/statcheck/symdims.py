"""Symbolic dimension algebra for the shape abstract interpreter.

A :class:`SymDim` is an exact multivariate polynomial over *atoms* with
:class:`~fractions.Fraction` coefficients, plus two integer-division
atoms (floor and ceiling) that keep tile arithmetic like

.. code:: text

    T            = m + r - 1
    tiles_high   = ceildiv(H + 2*p - r + 1, m)
    padded       = (tiles_high - 1) * m + T

closed under the operations the Winograd pipeline actually performs.
Values are immutable, hashable and structurally comparable: two
dimensions are equal iff their canonical term maps are equal (so
``m + r - 1 == r + m - 1`` but ``ceildiv(a, b)`` is *not* identified
with ``floordiv(a + b - 1, b)`` — semantic identities are checked by
evaluation over concrete models, see the hypothesis suite).

The algebra is deliberately small: ``+ - * **`` with non-negative
integer exponents, exact division where it stays polynomial, and
floor/ceil division that simplifies when the quotient is exact.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Number = Union[int, Fraction]

# An atom is a symbol name or a division node; a monomial maps atoms to
# positive integer exponents, stored as a sorted tuple of pairs.
Atom = Union[str, "_DivAtom"]
Monomial = Tuple[Tuple[Atom, int], ...]


class SymDimError(ValueError):
    """Raised for operations leaving the supported algebra."""


def _atom_key(atom: Atom) -> Tuple[int, str]:
    if isinstance(atom, str):
        return (0, atom)
    if atom._key is None:  # rendered once per atom, on its first sort
        object.__setattr__(atom, "_key", (1, repr(atom)))
    return atom._key


class _DivAtom:
    """Opaque ``floordiv``/``ceildiv`` node (immutable, hashable)."""

    __slots__ = ("num", "den", "ceil", "_hash", "_key")

    def __init__(self, num: "SymDim", den: "SymDim", ceil: bool) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ceil", ceil)
        object.__setattr__(self, "_hash", hash((num, den, ceil)))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("_DivAtom is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _DivAtom)
            and self.ceil == other.ceil
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fn = "ceildiv" if self.ceil else "floordiv"
        return f"{fn}({self.num}, {self.den})"


class SymDim:
    """An exact symbolic dimension (immutable)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction]) -> None:
        clean = {m: c for m, c in terms.items() if c != 0}
        object.__setattr__(
            self,
            "_terms",
            tuple(
                sorted(
                    clean.items(),
                    key=lambda kv: [(_atom_key(a), e) for a, e in kv[0]],
                )
            ),
        )
        object.__setattr__(self, "_hash", hash(self._terms))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SymDim is immutable")

    # ---- constructors ----------------------------------------------------
    @staticmethod
    def const(value: Number) -> "SymDim":
        return SymDim({(): Fraction(value)})

    @staticmethod
    def sym(name: str) -> "SymDim":
        if not name.isidentifier():
            raise SymDimError(f"bad symbol name {name!r}")
        return SymDim({((name, 1),): Fraction(1)})

    @staticmethod
    def _coerce(value: "DimLike") -> "SymDim":
        if isinstance(value, SymDim):
            return value
        if isinstance(value, (int, Fraction)):
            return SymDim.const(value)
        raise SymDimError(f"cannot coerce {value!r} to a dimension")

    # ---- inspection ------------------------------------------------------
    @property
    def terms(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        return self._terms

    def is_const(self) -> bool:
        return all(mono == () for mono, _ in self._terms)

    def as_const(self) -> Optional[Fraction]:
        if not self._terms:
            return Fraction(0)
        if self.is_const():
            return self._terms[0][1]
        return None

    def free_symbols(self) -> frozenset:
        names = set()
        for mono, _ in self._terms:
            for atom, _exp in mono:
                if isinstance(atom, str):
                    names.add(atom)
                else:
                    names |= atom.num.free_symbols()
                    names |= atom.den.free_symbols()
        return frozenset(names)

    def degree_in(self, name: str) -> int:
        """Max exponent of ``name`` over all monomials (asymptotic degree).

        Division atoms contribute the degree of their *numerator* (scaled
        by the atom's exponent); the denominator is ignored, which keeps
        the measure conservative: ``ceildiv(H, M) * M`` reports degree 1
        in both ``H`` and ``M`` even though the product is ~``H``.
        """
        best = 0
        for mono, _ in self._terms:
            total = 0
            for atom, exp in mono:
                if isinstance(atom, str):
                    if atom == name:
                        total += exp
                else:
                    total += exp * atom.num.degree_in(name)
            best = max(best, total)
        return best

    def linear_in(self, name: str) -> Optional[Tuple[Fraction, "SymDim"]]:
        """``(a, b)`` with ``self == a * name + b`` when the dimension is
        affine in ``name`` (and ``name`` appears in no division atom)."""
        coeff = Fraction(0)
        rest: Dict[Monomial, Fraction] = {}
        for mono, c in self._terms:
            uses = [
                (atom, exp)
                for atom, exp in mono
                if (isinstance(atom, str) and atom == name)
                or (isinstance(atom, _DivAtom) and name in atom.num.free_symbols())
                or (isinstance(atom, _DivAtom) and name in atom.den.free_symbols())
            ]
            if not uses:
                rest[mono] = c
                continue
            if mono == ((name, 1),):
                coeff += c
            else:
                return None
        if coeff == 0:
            return None
        return coeff, SymDim(rest)

    # ---- arithmetic ------------------------------------------------------
    def __add__(self, other: "DimLike") -> "SymDim":
        other = SymDim._coerce(other)
        out: Dict[Monomial, Fraction] = dict(self._terms)
        for mono, c in other._terms:
            out[mono] = out.get(mono, Fraction(0)) + c
        return SymDim(out)

    __radd__ = __add__

    def __neg__(self) -> "SymDim":
        return SymDim({mono: -c for mono, c in self._terms})

    def __sub__(self, other: "DimLike") -> "SymDim":
        return self + (-SymDim._coerce(other))

    def __rsub__(self, other: "DimLike") -> "SymDim":
        return SymDim._coerce(other) + (-self)

    def __mul__(self, other: "DimLike") -> "SymDim":
        other = SymDim._coerce(other)
        out: Dict[Monomial, Fraction] = {}
        for mono_a, ca in self._terms:
            for mono_b, cb in other._terms:
                merged: Dict[Atom, int] = {}
                for atom, exp in mono_a + mono_b:
                    merged[atom] = merged.get(atom, 0) + exp
                mono = tuple(
                    sorted(merged.items(), key=lambda kv: _atom_key(kv[0]))
                )
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return SymDim(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SymDim":
        if not isinstance(exponent, int) or exponent < 0:
            raise SymDimError(f"exponent must be a non-negative int: {exponent!r}")
        out = SymDim.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def exact_div(self, other: "DimLike") -> Optional["SymDim"]:
        """``self / other`` when the quotient stays a polynomial, else None."""
        other = SymDim._coerce(other)
        const = other.as_const()
        if const is not None:
            if const == 0:
                raise ZeroDivisionError("division by zero dimension")
            return SymDim({mono: c / const for mono, c in self._terms})
        if len(other._terms) != 1:
            return None
        (dmono, dcoeff), = other._terms
        out: Dict[Monomial, Fraction] = {}
        for mono, c in self._terms:
            have = dict(mono)
            for atom, exp in dmono:
                if have.get(atom, 0) < exp:
                    return None
                have[atom] -= exp
            new = tuple(
                sorted(
                    ((a, e) for a, e in have.items() if e),
                    key=lambda kv: _atom_key(kv[0]),
                )
            )
            out[new] = out.get(new, Fraction(0)) + c / dcoeff
        return SymDim(out)

    def __truediv__(self, other: "DimLike") -> "SymDim":
        result = self.exact_div(other)
        if result is None:
            raise SymDimError(
                f"inexact division {self} / {SymDim._coerce(other)}; use "
                "floordiv()/ceildiv() for integer division"
            )
        return result

    # ---- evaluation ------------------------------------------------------
    def evaluate(self, env: Mapping[str, Number]) -> Fraction:
        """Exact value under a concrete symbol assignment."""
        total = Fraction(0)
        for mono, c in self._terms:
            value = c
            for atom, exp in mono:
                value *= Fraction(_atom_value(atom, env)) ** exp
            total += value
        return total

    def evaluate_int(self, env: Mapping[str, Number]) -> int:
        value = self.evaluate(env)
        if value.denominator != 1:
            raise SymDimError(f"{self} evaluates to non-integer {value}")
        return int(value)

    def subs(self, env: Mapping[str, Union["SymDim", Number]]) -> "SymDim":
        """Partially substitute symbols with values or other dims."""
        out = SymDim.const(0)
        for mono, c in self._terms:
            term = SymDim.const(c)
            for atom, exp in mono:
                term = term * (_atom_subs(atom, env) ** exp)
            out = out + term
        return out

    # ---- equality / display ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymDim.const(other)
        if not isinstance(other, SymDim):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymDim({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # render symbolic terms first, the constant term last
        ordered = sorted(self._terms, key=lambda kv: kv[0] == ())
        out = ""
        for mono, c in ordered:
            factors = []
            if abs(c) != 1 or not mono:
                factors.append(str(abs(c)))
            for atom, exp in mono:
                text = atom if isinstance(atom, str) else repr(atom)
                factors.append(text if exp == 1 else f"{text}**{exp}")
            term = "*".join(factors)
            if not out:
                out = term if c >= 0 else f"-{term}"
            else:
                out += f" + {term}" if c >= 0 else f" - {term}"
        return out


DimLike = Union[SymDim, int, Fraction]


def _atom_value(atom: Atom, env: Mapping[str, Number]) -> Number:
    if isinstance(atom, str):
        if atom not in env:
            raise SymDimError(f"unbound symbol {atom!r}")
        return env[atom]
    num = atom.num.evaluate(env)
    den = atom.den.evaluate(env)
    if den == 0:
        raise ZeroDivisionError(f"{atom!r} divides by zero")
    return math.ceil(num / den) if atom.ceil else math.floor(num / den)


def _atom_subs(atom: Atom, env: Mapping[str, Union["SymDim", Number]]) -> SymDim:
    if isinstance(atom, str):
        if atom in env:
            return SymDim._coerce(env[atom])
        return SymDim.sym(atom)
    num = atom.num.subs(env)
    den = atom.den.subs(env)
    return _make_div(num, den, atom.ceil)


def _make_div(num: SymDim, den: SymDim, ceil: bool) -> SymDim:
    den_const = den.as_const()
    if den_const is not None and den_const == 1:
        return num
    exact = num.exact_div(den)
    if exact is not None and all(
        c.denominator == 1 for _, c in exact.terms
    ):
        return exact
    num_const, den_c = num.as_const(), den.as_const()
    if num_const is not None and den_c is not None:
        ratio = num_const / den_c
        return SymDim.const(math.ceil(ratio) if ceil else math.floor(ratio))
    return SymDim({((_DivAtom(num, den, ceil), 1),): Fraction(1)})


def floordiv(num: DimLike, den: DimLike) -> SymDim:
    """``num // den`` with exact-quotient simplification."""
    return _make_div(SymDim._coerce(num), SymDim._coerce(den), ceil=False)


def ceildiv(num: DimLike, den: DimLike) -> SymDim:
    """``ceil(num / den)`` with exact-quotient simplification."""
    return _make_div(SymDim._coerce(num), SymDim._coerce(den), ceil=True)


def sym(name: str) -> SymDim:
    return SymDim.sym(name)


def const(value: Number) -> SymDim:
    return SymDim.const(value)


# ---- parsing ----------------------------------------------------------------

#: Call names accepted inside dimension expressions.
_PARSE_CALLS = {"ceil", "ceildiv", "floordiv"}


def parse_dim(text: str) -> SymDim:
    """Parse a dimension expression: symbols, integers, ``+ - * **``,
    ``//`` (floor), ``/`` (exact), ``ceildiv(a, b)``/``floordiv(a, b)``
    and ``ceil(a / b)``."""
    try:
        node = ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise SymDimError(f"cannot parse dimension {text!r}: {exc.msg}") from exc
    return _fold(node, text)


def _fold(node: ast.expr, text: str) -> SymDim:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return SymDim.const(node.value)
        raise SymDimError(f"non-integer literal in dimension {text!r}")
    if isinstance(node, ast.Name):
        return SymDim.sym(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_fold(node.operand, text)
    if isinstance(node, ast.BinOp):
        left = _fold(node.left, text)
        right = _fold(node.right, text)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv):
            return floordiv(left, right)
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            exponent = right.as_const()
            if exponent is None or exponent.denominator != 1 or exponent < 0:
                raise SymDimError(f"unsupported exponent in {text!r}")
            return left ** int(exponent)
        raise SymDimError(f"unsupported operator in dimension {text!r}")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _PARSE_CALLS or node.keywords:
            raise SymDimError(f"unsupported call {name!r} in dimension {text!r}")
        if name == "ceil":
            if len(node.args) != 1 or not (
                isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Div)
            ):
                raise SymDimError(f"ceil() needs a single a / b argument in {text!r}")
            inner = node.args[0]
            return ceildiv(_fold(inner.left, text), _fold(inner.right, text))
        if len(node.args) != 2:
            raise SymDimError(f"{name}() needs two arguments in {text!r}")
        left = _fold(node.args[0], text)
        right = _fold(node.args[1], text)
        return ceildiv(left, right) if name == "ceildiv" else floordiv(left, right)
    raise SymDimError(f"unsupported syntax in dimension {text!r}")


def sum_dims(dims: Iterable[DimLike]) -> SymDim:
    total = SymDim.const(0)
    for dim in dims:
        total = total + SymDim._coerce(dim)
    return total
