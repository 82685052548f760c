"""Multivariate polynomials over Q_p with a truncation certificate.

A MultiPoly maps exponent tuples to coefficients.  `valid=None` marks an
exact polynomial; an integer `valid` says only monomials of total degree
<= valid are trustworthy (the object was produced by truncating a series),
and higher terms are dropped at construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from padicmech.core import (
    DEFAULT_PRECISION,
    DomainViolation,
    PadicNumber,
    PrimeMismatch,
    check_prime,
    radius_exponent,
)
from padicmech.series import _BIG, PowerSeries, _flat_mul, _flatten, _horner, _unflatten


def _merge_valid(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class MultiPoly:
    """Polynomial in `nvars` variables with PadicNumber coefficients."""

    __slots__ = ("prime", "nvars", "terms", "valid")

    def __init__(self, prime: int, nvars: int, terms=None,
                 valid: Optional[int] = None, precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.prime = prime
        self.nvars = nvars
        self.valid = valid
        clean: Dict[Tuple[int, ...], PadicNumber] = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            if valid is not None and sum(expo) > valid:
                continue
            c = PadicNumber.of(c, prime, precision)
            if expo in clean:
                c = clean[expo] + c
            if c.is_zero and c.is_exact_zero:
                clean.pop(expo, None)
            else:
                clean[expo] = c
        self.terms = clean

    @classmethod
    def _raw(cls, prime: int, nvars: int, terms: Dict, valid: Optional[int]) -> "MultiPoly":
        """Trusted constructor for results already checked: exponent tuples of
        length nvars capped at `valid`, PadicNumber coefficients, no exact zeros."""
        out = object.__new__(cls)
        out.prime, out.nvars, out.terms, out.valid = prime, nvars, terms, valid
        return out

    @classmethod
    def constant(cls, prime: int, nvars: int, c, precision: int = DEFAULT_PRECISION) -> "MultiPoly":
        return cls(prime, nvars, {(0,) * nvars: c}, precision=precision)

    @classmethod
    def variable(cls, prime: int, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(prime, nvars, {expo: 1})

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> PadicNumber:
        return self.terms.get((0,) * self.nvars, PadicNumber.zero(self.prime))

    def min_order(self) -> int:
        """Smallest total degree carrying a coefficient (0 for the zero poly)."""
        return min((sum(e) for e in self.terms), default=0)

    def _check(self, other: "MultiPoly") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch(f"p={self.prime} vs p={other.prime}")
        if self.nvars != other.nvars:
            raise ValueError(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            other = MultiPoly.constant(self.prime, self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        merged = dict(self.terms)
        for expo, c in other.terms.items():
            merged[expo] = merged[expo] + c if expo in merged else c
        return MultiPoly(self.prime, self.nvars, merged,
                         _merge_valid(self.valid, other.valid))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.prime, self.nvars,
                         {e: -c for e, c in self.terms.items()}, self.valid)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber, MultiPoly)):
            return self + (-other if isinstance(other, MultiPoly)
                           else -PadicNumber.of(other, self.prime))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "MultiPoly":
        c = PadicNumber.of(c, self.prime)
        return MultiPoly(self.prime, self.nvars,
                         {e: c * a for e, a in self.terms.items()}, self.valid)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        valid = _merge_valid(self.valid, other.valid)
        layout = _layout(tuple(map(add, _degrees(self), _degrees(other))), valid)
        flat = _flat_mul(_flat_terms(self, layout), _flat_terms(other, layout), self.prime,
                         layout[2])
        return MultiPoly._raw(self.prime, self.nvars, _terms(flat, layout, self.prime), valid)

    __rmul__ = __mul__

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        out = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            dropped = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
            out[dropped] = c * PadicNumber.of(expo[i], self.prime)
        valid = None if self.valid is None else max(self.valid - 1, 0)
        return MultiPoly(self.prime, self.nvars, out, valid)

    def evaluate(self, values: Sequence) -> PadicNumber:
        vals = [PadicNumber.of(v, self.prime) for v in values]
        if len(vals) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(vals)}")
        pows = []
        for i, v in enumerate(vals):
            emax = max((e[i] for e in self.terms), default=0)
            row = [None, v]
            while len(row) <= emax:
                row.append(row[-1] * v)
            pows.append(row)
        acc = PadicNumber.zero(self.prime)
        for expo, c in self.terms.items():
            term = c
            for i, e in enumerate(expo):
                if e:
                    term = term * pows[i][e]
            acc = acc + term
        return acc

    def substitute(self, series: Sequence[PowerSeries]) -> PowerSeries:
        """Plug a univariate series in for each variable; returns a series in
        that common parameter."""
        if len(series) != self.nvars:
            raise ValueError(f"need {self.nvars} series, got {len(series)}")
        return self._plug_in(series, lambda c: PowerSeries.polynomial(self.prime, [c]))

    def substitute_multi(self, inner: Sequence["MultiPoly"]) -> "MultiPoly":
        """Plug a MultiPoly in for each variable (all sharing one variable set)."""
        if len(inner) != self.nvars:
            raise ValueError(f"need {self.nvars} inner polynomials, got {len(inner)}")
        m = inner[0].nvars
        if any(g.nvars != m for g in inner):
            raise ValueError("inner polynomials must share one variable set")
        return self._plug_in(inner, lambda c: MultiPoly.constant(self.prime, m, c))

    def _plug_in(self, inner, constant):
        """Sum over terms of constant(c) times the inner values raised to the
        term's exponents; `constant(0)` starts the sum."""
        for g in inner:
            if g.prime != self.prime:
                raise PrimeMismatch(f"p={self.prime} vs p={g.prime}")
        acc = constant(0)
        for expo, c in self.terms.items():
            term = constant(c)
            for g, e in zip(inner, expo):
                for _ in range(e):
                    term = term * g
            acc = acc + term
        return acc

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.prime != other.prime or self.nvars != other.nvars:
            return False
        keys = set(self.terms) | set(other.terms)
        zero = PadicNumber.zero(self.prime)
        return all(self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys)

    def __hash__(self):
        # == treats an inexact-zero term as absent, so its exponent must not count
        return hash((self.prime, self.nvars,
                     frozenset(e for e, c in self.terms.items() if not c.is_zero)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"{e}:{c}" for e, c in sorted(self.terms.items())]
        return "{" + ", ".join(parts) + "}"

    __repr__ = __str__


def compose_series(outer: PowerSeries, inner: MultiPoly) -> MultiPoly:
    """Substitute a multivariate polynomial into a univariate series.

    For a radius-limited outer series the inner polynomial needs a zero
    constant term, and every inner coefficient must already sit inside the
    outer radius so the substitution converges at all Z_p arguments.
    """
    if outer.prime != inner.prime:
        raise PrimeMismatch(f"p={outer.prime} vs p={inner.prime}")
    og = inner.min_order()
    if outer.radius is not None:
        if not (inner.constant_term().is_zero and inner.constant_term().is_exact_zero):
            raise DomainViolation(
                "composition into a radius-limited series needs a zero constant term",
                reason="series-radius")
        r_out = radius_exponent(outer.radius, outer.prime)
        for expo, c in inner.terms.items():
            v = c.zero_known_to if c.is_zero else c.valuation
            if v < r_out:
                raise DomainViolation(
                    f"inner coefficient at {expo} has norm above the outer radius",
                    reason="series-radius")
        valid = (outer.degree + 1) * max(og, 1) - 1
    else:
        valid = None if inner.valid is None else outer.degree * inner.valid
    valid = _merge_valid(valid, inner.valid)
    d = outer.degree
    layout = _layout(tuple(k + (k * d if valid is None else min(max(valid, 0), k * d))
                           for k in _degrees(inner)), valid)
    acc = _horner(outer.coeffs, _flat_terms(inner, layout), outer.prime, layout[2])
    return MultiPoly._raw(outer.prime, inner.nvars, _terms(acc, layout, outer.prime), valid)


def _degrees(f: MultiPoly) -> List[int]:
    return [max((e[i] for e in f.terms), default=0) for i in range(f.nvars)]


def _layout(bounds: Tuple[int, ...], valid: Optional[int]):
    """Kronecker layout of the exponent box 0..bounds[i], first variable fastest
    (a product inside the box never carries into the next variable): strides, each
    slot's exponents, and starting caps that keep slots past `valid` exact zeros."""
    strides = [prod(b + 1 for b in bounds[:i]) for i in range(len(bounds))]
    expos = [e[::-1] for e in product(*(range(b + 1) for b in reversed(bounds)))]
    return strides, expos, [_BIG if valid is None or sum(e) <= valid else -_BIG for e in expos]


def _flat_terms(f: MultiPoly, layout):
    return _flatten(sorted((sum(map(mul, e, layout[0])), c) for e, c in f.terms.items()), f.prime)


def _terms(f, layout, p: int) -> Dict[Tuple[int, ...], PadicNumber]:
    expos = layout[1]
    return {e: c for e, c in zip(expos, _unflatten(f, len(expos), p)) if not c.is_exact_zero}
