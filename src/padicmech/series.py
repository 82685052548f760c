"""Truncated power series over Q_p: elementary functions, integration, pathologies.

A PowerSeries is a finite coefficient list c_0..c_D plus a declared convergence
domain.  `radius=None` marks a polynomial (evaluate anywhere).  The `geometric`
flag is a tail certificate: it asserts |c_n| * radius^n decays geometrically in
n, which holds for exp/sin/cos (factorial denominators) and survives sums,
products, derivatives, antiderivatives, and monomial rescalings.  Certified
series may be integrated on the full closed disc |x| <= radius; uncertified
ones only on |x| <= radius/p, where termwise convergence is unconditional.

`coeff_floor(n)` optionally lower-bounds the valuation of every coefficient,
including the ones beyond the truncation degree; evaluation uses it to report
a tail bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from padicmech.core import (
    DEFAULT_PRECISION,
    DomainViolation,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    _int_valuation,
    check_prime,
    parse_padic_number,
    radius_exponent,
)

DEFAULT_DEGREE = 24

_BIG = 10**9  # stands in for the +inf valuation of an exactly-zero coefficient


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


class PowerSeries:
    """Degree-D truncation of sum(c_n x^n) with coefficients in Q_p."""

    __slots__ = ("prime", "coeffs", "radius", "geometric", "coeff_floor")

    def __init__(self, prime: int, coeffs: Sequence, radius: Optional[Fraction] = None,
                 geometric: bool = False, coeff_floor: Optional[Callable[[int], int]] = None,
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
        self.coeff_floor = coeff_floor

    @classmethod
    def polynomial(cls, prime: int, coeffs: Sequence, precision: int = DEFAULT_PRECISION) -> "PowerSeries":
        return cls(prime, coeffs, radius=None, precision=precision)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _floor(self, n: int) -> int:
        if self.coeff_floor is not None:
            return self.coeff_floor(n)
        if n <= self.degree:
            c = self.coeffs[n]
            return _BIG if c.is_zero else c.valuation
        # a polynomial's coefficients past its degree are exact zeros
        return _BIG if self.radius is None else -_BIG

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
            floor = None
            if self.coeff_floor:
                v0 = _BIG if c0.is_zero else c0.valuation
                floor = lambda n, _f=self.coeff_floor, _v0=v0: _v0 if n == 0 else _f(n)
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
        fa, fb = self.coeff_floor, other.coeff_floor
        floor = (lambda n: min(self._floor(n), other._floor(n))) if (fa or fb) else None
        return PowerSeries(self.prime, coeffs, radius, geo, floor)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.prime, [-c for c in self.coeffs], self.radius,
                           self.geometric, self.coeff_floor)

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
        vc = c.valuation
        floor = (lambda n: self.coeff_floor(n) + vc) if self.coeff_floor else None
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
        coeffs = _trunc_mul(self.coeffs, other.coeffs, d, self.prime)
        radius, geo = self._combine_domain(other)
        floor = None
        if self.coeff_floor or other.coeff_floor:
            def floor(n, _f=self._floor, _g=other._floor):
                return min(_f(i) + _g(n - i) for i in range(n + 1))
        return PowerSeries(self.prime, coeffs, radius, geo, floor)

    __rmul__ = __mul__

    def derive(self) -> "PowerSeries":
        if self.degree == 0:
            return PowerSeries(self.prime, [PadicNumber.zero(self.prime)], self.radius, self.geometric)
        p = self.prime
        coeffs = [PadicNumber.of(n, p) * self.coeffs[n] for n in range(1, self.degree + 1)]
        floor = None
        if self.coeff_floor:
            def floor(n, _f=self._floor, _p=p):
                return _f(n + 1) + _int_valuation(n + 1, _p)
        return PowerSeries(p, coeffs, self.radius, self.geometric, floor)

    def antiderivative(self) -> "PowerSeries":
        """Termwise primitive with F(0) = 0; divisions by n+1 tracked."""
        p = self.prime
        coeffs: List[PadicNumber] = [PadicNumber.zero(p)]
        for n, c in enumerate(self.coeffs):
            coeffs.append(c / PadicNumber.of(n + 1, p, c.relative_precision or DEFAULT_PRECISION))
        floor = None
        if self.coeff_floor:
            def floor(n, _f=self._floor, _p=p):
                return _BIG if n == 0 else _f(n - 1) - _int_valuation(n, _p)
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
        acc = [self.coeffs[self.degree]] + [PadicNumber.zero(self.prime)] * d
        for n in range(self.degree - 1, -1, -1):
            acc = _trunc_mul(acc, inner.coeffs, d, self.prime)
            acc[0] = acc[0] + self.coeffs[n]
        radius, geo, floor = self._composed_domain(inner, orders)
        return PowerSeries(self.prime, acc, radius, geo, floor)

    def _composed_domain(self, inner: "PowerSeries", orders):
        p = self.prime
        if self.radius is None:
            return inner.radius, inner.geometric, None
        r_out = radius_exponent(self.radius, p)
        if orders == [1]:
            # linear monomial c*x: exact rescaling, certificate survives
            vc = inner.coeffs[1].valuation
            floor = None
            if self.coeff_floor:
                def floor(n, _f=self._floor, _vc=vc):
                    return _f(n) + n * _vc
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


def _trunc_mul(f: Sequence[PadicNumber], g: Sequence[PadicNumber], d: int,
               p: int) -> List[PadicNumber]:
    """Coefficients 0..d of the product of two coefficient lists.

    Exact-zero factors are skipped: adding an exact zero returns the other
    operand, so the sums and their tracked precision are unchanged.
    """
    coeffs = [PadicNumber.zero(p)] * (d + 1)
    g_terms = [(j, b) for j, b in enumerate(g[: d + 1]) if not b.is_exact_zero]
    for i, a in enumerate(f[: d + 1]):
        if a.is_exact_zero:
            continue
        for j, b in g_terms:
            if i + j > d:
                break
            coeffs[i + j] = coeffs[i + j] + a * b
    return coeffs


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
    floor = lambda n: -factorial_valuation(n, p)
    return PowerSeries(p, coeffs, radius=convergence_radius(p), geometric=True,
                       coeff_floor=floor)


def evaluate(f: PowerSeries, x, with_tail: bool = False):
    """Partial sum of f at x, guarded by the declared convergence radius.

    With with_tail=True also returns the certified tail exponent T (the
    omitted terms have norm <= p^-T) when a coefficient floor is available,
    else None.
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
    elif f.coeff_floor is not None and not x.is_zero:
        vx = x.valuation
        d = f.degree
        tail = min(f.coeff_floor(n) + n * vx for n in range(d + 1, d + 66))
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


def sup_norm_probe(f: PowerSeries, depth: int, cap: int = 10**6) -> SupNormReport:
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
    if p**depth > cap:
        raise ValueError(f"p^depth = {p**depth} exceeds the probe cap {cap}")
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
