"""Truncated power series over Q_p: elementary functions, integration, pathologies.

A PowerSeries is a finite coefficient list c_0..c_D plus a declared convergence
domain.  `radius=None` marks a polynomial (evaluate anywhere).  The `geometric`
flag is a tail certificate: it asserts |c_n| * radius^n decays geometrically in
n, which holds for exp/sin/cos (factorial denominators) and survives sums,
products, derivatives, antiderivatives, and monomial rescalings.  Certified
series may be integrated on the full closed disc |x| <= radius; uncertified
ones only on |x| <= radius/p, where termwise convergence is unconditional.

An optional `floor` (a TailFloor) lower-bounds v_p(c_n) at every n, the
omitted coefficients included, and `evaluate` turns it into a tail bound.  The
floor is data, built once per operation: a head of materialised bounds for
small n, kept only where they differ from the rule, and a rule, the least of
a few terms a + b*n - v_p((n-s)!).  exp, sin, cos and the certified flows
carry the single term -v_p(n!).  Sums, scalings, rescalings, derivatives and
antiderivatives move the terms; a product pairs them by Legendre's
v_p(i!) + v_p(j!) <= v_p((i+j)!) and combines the heads in one min-plus pass.
The window lemma (see `evaluate`) bounds the whole tail by 65 terms past the
truncation degree, or past the last head entry or term start if later.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from padicmech.core import (
    DEFAULT_PRECISION,
    ENUMERATION_CAP,
    DomainViolation,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    _int_valuation,
    check_prime,
    exceeds_cap,
    parse_padic_number,
    radius_exponent,
)

DEFAULT_DEGREE = 24

_BIG = 10**9  # stands in for the +inf valuation of an exactly-zero coefficient
_WINDOW = 65  # omitted terms read for a tail bound: indices D+1 .. D+_WINDOW


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def convergence_radius(p: int) -> Fraction:
    """Radius of the p-adic exponential family: 1/p for odd p, 1/4 at p=2."""
    return Fraction(1, 4) if p == 2 else Fraction(1, p)


class TailFloor:
    """Lower bound for v_p(c_n) at every index n: a series' tail certificate.

    For n < len(head) the bound is head[n].  Past the head it is the rule:
    the least of a + b*n - v_p((n-s)!) over the terms (a, b, s) with s <= n,
    or _BIG (an exact zero) when no term applies.  Immutable; a trailing
    head entry equal to the rule and a term another term bounds from below
    (no larger a, b and s) are dropped on construction.

    The operations take the degree of the series they build: when the rule
    they derive is only a lower bound of the exact recursion, they
    materialise the head through that degree's 65-index evaluation window,
    so the tail `evaluate` reports stays exact.
    """

    __slots__ = ("prime", "head", "terms")

    def __init__(self, prime: int, head: Sequence[int] = (),
                 terms: Sequence[Tuple[int, int, int]] = ()):
        terms = set(terms)
        self.prime = prime
        self.terms = tuple(sorted(
            t for t in terms
            if not any(u != t and u[0] <= t[0] and u[1] <= t[1] and u[2] <= t[2]
                       for u in terms)))
        head = list(head)
        while head and head[-1] == self.rule(len(head) - 1):
            head.pop()
        self.head = tuple(head)

    def rule(self, n: int) -> int:
        best = _BIG
        for a, b, s in self.terms:
            if s <= n:
                v = a + b * n - factorial_valuation(n - s, self.prime)
                if v < best:
                    best = v
        return best

    def at(self, n: int) -> int:
        return self.head[n] if n < len(self.head) else self.rule(n)

    def tail(self, vx: int, degree: int) -> int:
        """Least at(n) + n*vx over the omitted n > degree that can hold it:
        the 65-index window, stretched to the last head entry and the last
        term's start (see `evaluate`).  Summed a term at a time."""
        p, head = self.prime, self.head
        stop = max([degree + _WINDOW, len(head) - 1] + [s for _, _, s in self.terms]) + 1
        lo = max(degree + 1, len(head))
        vals = [head[n] + n * vx for n in range(degree + 1, lo)]
        first = min((s for _, _, s in self.terms), default=stop)
        vals += [_BIG + n * vx for n in range(lo, min(stop, first))]
        for a, b, s in self.terms:
            vals += [a + (b + vx) * n - factorial_valuation(n - s, p)
                     for n in range(max(lo, s), stop)]
        return min(vals)

    def shifted(self, c: int, slope: int = 0) -> "TailFloor":
        """Bound + c + slope*n: a scaling by a value of valuation c, or the
        rescaling x -> u*x with v_p(u) = slope."""
        return TailFloor(self.prime, [h + c + slope * n for n, h in enumerate(self.head)],
                         [(a + c, b + slope, s) for a, b, s in self.terms])

    def with_constant(self, v0: int) -> "TailFloor":
        """The same bound with v0 for the constant coefficient."""
        return TailFloor(self.prime, (v0,) + self.head[1:], self.terms)

    def minimum(self, other: "TailFloor") -> "TailFloor":
        """Bound for a sum: the pointwise minimum."""
        n_head = max(len(self.head), len(other.head))
        return TailFloor(self.prime, [min(self.at(n), other.at(n)) for n in range(n_head)],
                         self.terms + other.terms)

    def times(self, other: "TailFloor", degree: int) -> "TailFloor":
        """Bound for a product: min over i + j = n of self(i) + other(j).

        A head entry against the other rule gives shifted terms.  Two rule
        terms give one term: by v_p(i!) + v_p(j!) <= v_p((i+j)!) their least
        sum sits where the steeper factor takes its least index.  That is
        exact when no head lies above its own rule (`_below_rule`); past a
        raised head the pair is cut to the rule's own indices, the rule is
        a lower bound and the head is materialised.
        """
        f, g = self, other
        exact = f._below_rule() and g._below_rule()
        terms = []
        for head, rule in ((f.head, g.terms), (g.head, f.terms)):
            for i, h in enumerate(head):
                if h < _BIG // 2:  # an exact-zero coefficient adds nothing
                    terms += [(h + a - b * i, b, s + i) for a, b, s in rule]
        for a1, b1, s1 in f.terms:
            lo1 = s1 if exact else max(s1, len(f.head))
            for a2, b2, s2 in g.terms:
                lo2 = s2 if exact else max(s2, len(g.head))
                steep = (b2 - b1) * lo2 if b1 <= b2 else (b1 - b2) * lo1
                terms.append((a1 + a2 + steep, min(b1, b2), s1 + s2))
        n_head = len(f.head) + len(g.head) - 1 if f.head and g.head else 0
        n_head = max(n_head, _head_length(degree, exact))
        fv = [f.at(i) for i in range(n_head)]
        gv = [g.at(j) for j in range(n_head)]
        head = [min(fv[i] + gv[n - i] for i in range(n + 1)) for n in range(n_head)]
        return TailFloor(f.prime, head, terms)

    def derived(self, degree: int) -> "TailFloor":
        """Bound for the derivative: self(n+1) + v_p(n+1).  A term with s = 0
        shifts exactly (v_p((n+1)!) - v_p(n+1) = v_p(n!)); for s >= 1 the
        shifted term drops the v_p(n+1)."""
        p = self.prime
        exact = not any(s for _, _, s in self.terms)
        n_head = max(len(self.head) - 1, _head_length(degree, exact))
        head = [self.at(n + 1) + _int_valuation(n + 1, p) for n in range(n_head)]
        return TailFloor(p, head, [(a + b, b, max(s - 1, 0)) for a, b, s in self.terms])

    def integrated(self, degree: int) -> "TailFloor":
        """Bound for the primitive with F(0) = 0: self(n-1) - v_p(n).  A term
        with s = 0 shifts exactly (v_p((n-1)!) + v_p(n) = v_p(n!)); for
        s >= 1, v_p(n!) still bounds v_p((n-1-s)!) + v_p(n)."""
        p = self.prime
        exact = not any(s for _, _, s in self.terms)
        n_head = max(len(self.head) + 1, _head_length(degree, exact))
        head = [_BIG] + [self.at(n - 1) - _int_valuation(n, p) for n in range(1, n_head)]
        return TailFloor(p, head, [(a - b, b, 0) for a, b, _ in self.terms])

    def _below_rule(self) -> bool:
        """No head entry lies above the rule at its index."""
        return all(h <= self.rule(n) for n, h in enumerate(self.head))

    def __eq__(self, other):
        if not isinstance(other, TailFloor):
            return NotImplemented
        return (self.prime, self.head, self.terms) == (other.prime, other.head, other.terms)

    def __hash__(self):
        return hash((self.prime, self.head, self.terms))

    def __repr__(self) -> str:
        return f"TailFloor({self.prime}, head={self.head}, terms={self.terms})"


def _head_length(degree: int, exact: bool) -> int:
    """Head a floor needs at this degree: none when its rule is exact, else
    every index `evaluate` reads."""
    return 0 if exact else degree + _WINDOW + 1


def factorial_floor(p: int) -> TailFloor:
    """v_p(c_n) >= -v_p(n!): the floor of exp, sin, cos and certified flows."""
    return TailFloor(p, terms=[(0, 0, 0)])


class PowerSeries:
    """Degree-D truncation of sum(c_n x^n) with coefficients in Q_p."""

    __slots__ = ("prime", "coeffs", "radius", "geometric", "floor")

    def __init__(self, prime: int, coeffs: Sequence, radius: Optional[Fraction] = None,
                 geometric: bool = False, floor: Optional[TailFloor] = None,
                 precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.prime = prime
        self.coeffs = tuple(PadicNumber.of(c, prime, precision) for c in coeffs)
        self.radius = None if radius is None else Fraction(radius)
        if self.radius is not None:
            radius_exponent(self.radius, prime)  # must be a power of p
        # polynomials are trivially certified: their tail is empty
        self.geometric = geometric or radius is None
        self.floor = floor

    @classmethod
    def polynomial(cls, prime: int, coeffs: Sequence, precision: int = DEFAULT_PRECISION) -> "PowerSeries":
        return cls(prime, coeffs, radius=None, precision=precision)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _floors(self, other: "PowerSeries") -> Optional[Tuple[TailFloor, TailFloor]]:
        """Both operands' floors when at least one is certified.  A polynomial
        without one gets the exact floor of its coefficients (exact zeros
        past its degree); a truncation without one voids the certificate."""
        if self.floor is None and other.floor is None:
            return None
        pair = tuple(f.floor if f.floor is not None or f.radius is not None
                     else TailFloor(f.prime, [_BIG if c.is_zero else c.valuation
                                              for c in f.coeffs])
                     for f in (self, other))
        return None if None in pair else pair

    def _check(self, other: "PowerSeries") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch(f"p={self.prime} vs p={other.prime}")

    def _combine_domain(self, other: "PowerSeries") -> Tuple[Optional[Fraction], bool]:
        if self.radius is None:
            return other.radius, self.geometric and other.geometric
        if other.radius is None:
            return self.radius, self.geometric and other.geometric
        return min(self.radius, other.radius), self.geometric and other.geometric

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            c0 = self.coeffs[0] + PadicNumber.of(other, self.prime)
            floor = self.floor and self.floor.with_constant(_BIG if c0.is_zero else c0.valuation)
            return PowerSeries(self.prime, (c0,) + self.coeffs[1:], self.radius,
                               self.geometric, floor)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        # exact polynomials have a known (zero) tail, so they never truncate
        # the other operand; two truncated series meet at the shorter degree
        if self.radius is None and other.radius is None:
            d = max(self.degree, other.degree)
        elif self.radius is None:
            d = other.degree
        elif other.radius is None:
            d = self.degree
        else:
            d = min(self.degree, other.degree)
        zero = PadicNumber.zero(self.prime)
        coeffs = [(self.coeffs[n] if n <= self.degree else zero)
                  + (other.coeffs[n] if n <= other.degree else zero)
                  for n in range(d + 1)]
        radius, geo = self._combine_domain(other)
        pair = self._floors(other)
        floor = pair and pair[0].minimum(pair[1])
        return PowerSeries(self.prime, coeffs, radius, geo, floor)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.prime, [-c for c in self.coeffs], self.radius,
                           self.geometric, self.floor)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self + (-PadicNumber.of(other, self.prime))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "PowerSeries":
        c = PadicNumber.of(c, self.prime)
        if c.is_zero:
            return PowerSeries(self.prime, [c] * (self.degree + 1), self.radius, self.geometric)
        floor = self.floor and self.floor.shifted(c.valuation)
        return PowerSeries(self.prime, [c * a for a in self.coeffs], self.radius,
                           self.geometric, floor)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        # full convolution for exact polynomials; a polynomial factor of
        # order og extends a degree-b truncation to degree b + og, because
        # x^og shifts the unknown tail out of range
        if self.radius is None and other.radius is None:
            d = self.degree + other.degree
        elif self.radius is None:
            d = other.degree + _min_order(self)
        elif other.radius is None:
            d = self.degree + _min_order(other)
        else:
            d = min(self.degree, other.degree)
        flat = [_flatten(enumerate(h.coeffs[: d + 1]), self.prime) for h in (self, other)]
        coeffs = _unflatten(_flat_mul(*flat, self.prime, [_BIG] * (d + 1)), d + 1, self.prime)
        radius, geo = self._combine_domain(other)
        pair = self._floors(other)
        floor = pair and pair[0].times(pair[1], d)
        return PowerSeries(self.prime, coeffs, radius, geo, floor)

    __rmul__ = __mul__

    def derive(self) -> "PowerSeries":
        if self.degree == 0:
            return PowerSeries(self.prime, [PadicNumber.zero(self.prime)], self.radius, self.geometric)
        p = self.prime
        coeffs = [PadicNumber.of(n, p) * self.coeffs[n] for n in range(1, self.degree + 1)]
        floor = self.floor and self.floor.derived(self.degree - 1)
        return PowerSeries(p, coeffs, self.radius, self.geometric, floor)

    def antiderivative(self) -> "PowerSeries":
        """Termwise primitive with F(0) = 0; divisions by n+1 tracked."""
        p = self.prime
        coeffs: List[PadicNumber] = [PadicNumber.zero(p)]
        for n, c in enumerate(self.coeffs):
            coeffs.append(c / PadicNumber.of(n + 1, p, c.relative_precision or DEFAULT_PRECISION))
        floor = self.floor and self.floor.integrated(self.degree + 1)
        return PowerSeries(p, coeffs, self.radius, self.geometric, floor)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute `inner` for x; inner needs a zero constant term unless
        the outer series is a polynomial."""
        self._check(inner)
        if not inner.coeffs[0].is_zero and self.radius is not None:
            raise DomainViolation(
                "composition into a radius-limited series needs a zero constant term",
                reason="series-radius")
        orders = [j for j, c in enumerate(inner.coeffs) if j > 0 and not c.is_zero]
        if not orders:
            # constant inner: zero (checked above) or a polynomial outer
            if self.radius is None:
                return PowerSeries(self.prime, [evaluate(self, inner.coeffs[0])])
            return PowerSeries(self.prime, [self.coeffs[0]])
        og = orders[0]
        if inner.radius is None:
            # exact polynomial inner: unknownness comes from the outer tail only
            d = self.degree * inner.degree if self.radius is None else (self.degree + 1) * og - 1
        else:
            d = inner.degree if self.radius is None else min(self.degree, inner.degree)
        acc = _horner(self.coeffs, _flatten(enumerate(inner.coeffs[: d + 1]), self.prime),
                      self.prime, [_BIG] * (d + 1))
        radius, geo, floor = self._composed_domain(inner, orders)
        return PowerSeries(self.prime, _unflatten(acc, d + 1, self.prime), radius, geo, floor)

    def _composed_domain(self, inner: "PowerSeries", orders):
        p = self.prime
        if self.radius is None:
            return inner.radius, inner.geometric, None
        r_out = radius_exponent(self.radius, p)
        if orders == [1]:
            # linear monomial c*x: exact rescaling, certificate survives
            vc = inner.coeffs[1].valuation
            floor = self.floor and self.floor.shifted(0, vc)
            return Fraction(p) ** (vc - r_out), self.geometric, floor
        # conservative: largest disc every inner term maps inside the outer radius
        e = max(-(-(r_out - inner.coeffs[j].valuation) // j) for j in orders)
        if inner.radius is not None:
            e = max(e, radius_exponent(inner.radius, p))
        return Fraction(p) ** -e, False, None

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.prime != other.prime or self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.prime, self.coeffs))

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.coeffs)
        return f"{self.prime}:{self.degree}:[{body}]"

    __repr__ = __str__


def _min_order(f: PowerSeries) -> int:
    """Lowest exponent whose coefficient is not known to vanish."""
    for j, c in enumerate(f.coeffs):
        if not (c.is_zero and c.is_exact_zero):
            return j
    return 0


def _horner(outer: Sequence[PadicNumber], inner, p: int, caps: List[int]):
    """outer(inner) by Horner's rule on a flat inner vector, flat across steps."""
    acc = _flatten([(0, outer[-1])], p)
    for c in reversed(outer[:-1]):
        acc = _flat_mul(acc, inner, p, caps, c)
    return acc


def _flatten(items, p: int):
    """The flat vector (m, K, X, V, A) of (slot, PadicNumber) pairs in slot order: the
    slots K that are not exact zeros, and for each the int X with value X * p^m, known
    mod p^(m + A), of valuation m + V; an inexact zero known to z has X = 0, V = A = z - m."""
    items = [(k, c) for k, c in items if not c.is_exact_zero]
    V = [c._v if c._zero_known is None else c._zero_known for _, c in items]
    m = min(V, default=0)
    V = [v - m for v in V]
    X = [0 if c._v is None else c._u * p ** v for (_, c), v in zip(items, V)]
    return m, [k for k, _ in items], X, V, [v + (c._k or 0) for (_, c), v in zip(items, V)]


def _flat_mul(f, g, p: int, caps: List[int], plus: Optional[PadicNumber] = None):
    """f*g, plus `plus` in slot 0, on slots 0..len(caps)-1 (a slot starting at
    cap -_BIG stays an exact zero), flat, each slot reduced and its valuation
    recomputed.  Slot k is the exact sum of X_i*Y_j over i + j = k mod p^cap,
    cap the least min(A_i + V_j, V_i + A_j): a PadicNumber sum of products is
    that, in any order.  The outer loop runs over the sparser factor."""
    if len(f[1]) > len(g[1]):
        f, g = g, f
    (mf, Kf, Xf, Vf, Af), (mg, Kg, Xg, Vg, Ag) = f, g
    n = min(len(caps), Kf[-1] + Kg[-1] + 1 if Kf and Kg else 1)
    plus = None if plus is None or plus.is_exact_zero else _flatten([(0, plus)], p)
    w = mf + mg
    lo = min(w, plus[0]) if plus else w
    up = p ** (w - lo)  # the values below count in units of p^lo
    cap, value, inner = caps[:n], [0] * n, list(zip(Kg, Xg, Vg, Ag))
    for j, x, v, a in zip(Kf, Xf, Vf, Af):
        x *= up
        for i, y, vi, ai in inner:
            k = i + j
            if k >= n:
                break
            c, c2 = a + vi, v + ai
            if c2 < c:
                c = c2
            if c < cap[k]:
                cap[k] = c
            value[k] += x * y
    if plus:
        pm, _, (px,), _, (pa,) = plus
        cap[0] = min(cap[0], pm + pa - w)
        value[0] += px * p ** (pm - lo)
    live = [k for k in range(n) if abs(cap[k]) < _BIG // 2]
    A = [cap[k] + w - lo for k in live]
    pw = list(accumulate(repeat(p, max(A, default=0)), mul, initial=1))
    exponent = {q: e for e, q in enumerate(pw)}
    X = [value[k] % pw[a] for k, a in zip(live, A)]
    return lo, live, X, [exponent[gcd(x, pw[a])] for x, a in zip(X, A)], A  # gcd(0, q) = q


def _unflatten(f, n: int, p: int) -> List[PadicNumber]:
    """Slots 0..n-1 of a flat vector as PadicNumbers."""
    m, K, X, V, A = f
    out = [PadicNumber.zero(p)] * n
    for k, x, v, a in zip(K, X, V, A):
        out[k] = PadicNumber._make(p, m + v, x // p ** v, a - v) if x else PadicNumber.zero(p, m + a)
    return out


def series_combine(op: str, f: PowerSeries, g: Optional[PowerSeries] = None) -> PowerSeries:
    """String-dispatched series algebra, mirroring the CLI surface."""
    if op == "derive":
        return f.derive()
    if g is None:
        raise ValueError(f"op {op!r} needs two series")
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    if op == "compose":
        return f.compose(g)
    raise ValueError(f"unknown series op {op!r}")


def elementary(kind: str, p: int, degree: int = DEFAULT_DEGREE,
               precision: int = DEFAULT_PRECISION) -> PowerSeries:
    """exp, sin, or cos as a truncated series with its certified radius."""
    check_prime(p)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    coeffs = []
    for n in range(degree + 1):
        if kind == "exp":
            c = Fraction(1, math.factorial(n))
        elif kind == "sin":
            c = Fraction((-1) ** (n // 2), math.factorial(n)) if n % 2 == 1 else Fraction(0)
        elif kind == "cos":
            c = Fraction((-1) ** (n // 2), math.factorial(n)) if n % 2 == 0 else Fraction(0)
        else:
            raise ValueError(f"unknown elementary kind {kind!r}")
        coeffs.append(PadicNumber(p, c, precision))
    return PowerSeries(p, coeffs, radius=convergence_radius(p), geometric=True,
                       floor=factorial_floor(p))


def evaluate(f: PowerSeries, x, with_tail: bool = False):
    """Partial sum of f at x, guarded by the declared convergence radius.

    With with_tail=True also returns the certified tail exponent T (the
    omitted terms have norm <= p^-T) when a coefficient floor is available,
    else None.  T is the least floor(n) + n*v_p(x) over n = D+1 .. D+65, a
    window stretched to the floor's last head entry and last term start.

    Window lemma: past the window the rule is increasing in n on the disc.
    On |x| <= radius every rule term has b + v_p(x) >= r_p, where
    convergence_radius(p) = p^-r_p: exp, sin, cos and Taylor flows have
    b = 0 on that disc, and closed flows and rescalings trade b against
    the radius one for one.  With m = n - s and s_p the base-p digit sum,
    a term at x is a + (b + v_p(x))*s + k*m + s_p(m)/(p-1) with
    k >= r_p - 1/(p-1) >= 1/2: least at its start m = 0, and 65 steps on
    higher by at least 65k - s_p(m)/(p-1) > 0 (for m < p^32).  A head lies
    below its rule, or it is materialised through the window and the rule
    past it undershoots the exact products by at most a binomial
    valuation, so no index past the stretched window undercuts its minimum.
    """
    x = PadicNumber.of(x, f.prime)
    if f.radius is not None and x.norm() > f.radius:
        raise DomainViolation(
            f"|x|_p = {x.norm()} exceeds the convergence radius {f.radius}",
            reason="series-radius")
    acc = PadicNumber.zero(f.prime)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    if not with_tail:
        return acc
    tail = None
    if f.radius is None:
        tail = _BIG  # polynomial: nothing omitted
    elif f.floor is not None and not x.is_zero:
        tail = f.floor.tail(x.valuation, f.degree)
    elif x.is_zero:
        tail = _BIG
    return acc, tail


def integral_domain_bound(f: PowerSeries) -> Optional[Fraction]:
    """Largest certified norm for integration endpoints.

    Certified-tail series integrate on the whole closed disc; for a generic
    series the domain shrinks by p because the divisions by n+1 can inflate
    term norms.
    """
    if f.radius is None:
        return None
    return f.radius if f.geometric else f.radius / f.prime


def definite_integral(f: PowerSeries, a, b) -> PadicNumber:
    """F(b) - F(a) for the termwise primitive F with F(0) = 0."""
    p = f.prime
    a = PadicNumber.of(a, p)
    b = PadicNumber.of(b, p)
    bound = integral_domain_bound(f)
    if bound is not None:
        for name, x in (("a", a), ("b", b)):
            if x.norm() > bound:
                raise DomainViolation(
                    f"|{name}|_p = {x.norm()} outside the certified integration domain {bound}",
                    reason="integral-domain")
    if a == b:
        return PadicNumber.zero(p)
    F = f.antiderivative()
    return evaluate(F, b) - evaluate(F, a)


def digit_dilate(x: PadicInt) -> PadicInt:
    """Spread digits to even positions: sum(a_j p^j) -> sum(a_j p^(2j)).

    Distance-squaring (|f(x)-f(y)| = |x-y|^2), hence injective with derivative
    identically zero: differentiability alone constrains nothing here.
    """
    p = x.prime
    out = 0
    for j, d in enumerate(x.digits):
        out += d * p ** (2 * j)
    return PadicInt(p, out, 2 * x.precision)


class SupNormReport(NamedTuple):
    value: Fraction        # max over sampled residues; a true lower bound
    upper_bound: Fraction  # sup over Z_p is at most this
    certified: bool        # value == sup exactly


def sup_norm_probe(f: PowerSeries, depth: int, cap: int = ENUMERATION_CAP) -> SupNormReport:
    """Max of |f(x)|_p over the p^depth residue classes mod p^depth.

    With Z_p coefficients, f moves by at most |x - c| <= p^-depth inside the
    class of c, so sup over Z_p is bounded by max(value, p^-depth).  Each
    f(c) is evaluated at the coefficients' full tracked precision; `value`
    is therefore the exact max over the sampled points, and it equals the
    sup whenever it reaches the sampling scale p^-depth.
    """
    p = f.prime
    if f.radius is not None:
        raise ValueError("sup-norm probing is defined for polynomials")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if exceeds_cap(p, depth, cap):
        raise ValueError(f"p^depth = {p}^{depth} exceeds the probe cap {cap}")
    k_min = None
    for c in f.coeffs:
        if c.is_exact_zero:
            continue
        if c.is_zero:  # cancelled to zero: bounded by its recorded depth
            k_min = c.zero_known_to if k_min is None else min(k_min, c.zero_known_to)
            continue
        if c.valuation < 0:
            raise ValueError("probe needs coefficients in Z_p")
        k_min = c.abs_precision if k_min is None else min(k_min, c.abs_precision)
    if k_min is None:  # the zero polynomial
        return SupNormReport(Fraction(0), Fraction(0), True)
    if depth > k_min:
        raise ValueError(f"depth {depth} exceeds the tracked precision {k_min}")
    big = p**k_min
    coeffs_mod = [0 if c.is_zero else c.residue(k_min) for c in f.coeffs]
    best = Fraction(0)
    for c in range(p**depth):
        val = 0
        for coef in reversed(coeffs_mod):
            val = (val * c + coef) % big
        if val:  # valuation < k_min is resolved exactly
            best = max(best, Fraction(1, p ** _int_valuation(val, p)))
    floor = Fraction(1, p**depth)
    return SupNormReport(best, max(best, floor), best >= floor)


def parse_series(text: str) -> PowerSeries:
    """Inverse of str(): `p:D:[c_0,c_1,...]` with Q_p coefficient literals."""
    head, _, body = text.strip().partition(":[")
    if not body.endswith("]"):
        raise ValueError(f"malformed series literal {text!r}")
    try:
        p_s, d_s = head.split(":")
        p, d = int(p_s), int(d_s)
    except ValueError as exc:
        raise ValueError(f"malformed series head in {text!r}") from exc
    coeffs = [parse_padic_number(part) for part in body[:-1].split(",")]
    if len(coeffs) != d + 1:
        raise ValueError(f"expected {d + 1} coefficients, got {len(coeffs)}")
    return PowerSeries(p, coeffs)
