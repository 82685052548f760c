"""Finite-dimensional quantum layer over p-adic scalars.

Amplitudes are exact Gaussian rationals a + b*i so inner products, Born
weights, and change-of-basis sums come out exactly.  Values in the quadratic
extension Q_p(i) are ordered pairs of p-adic numbers; the extension is only
a field (with the max norm on components) when -1 has no square root in
Q_p, which for odd p means p = 3 mod 4.  Plane waves are built as paired
cosine/sine polynomials in (t, x) by substituting a linear phase into the
elementary series, so the same domain certificates apply.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from padicmech.core import (
    DEFAULT_PRECISION,
    DomainViolation,
    PadicError,
    PadicNumber,
    PrimeMismatch,
    check_prime,
    padic_norm,
)
from padicmech.mechanics import VanishingMass
from padicmech.multi import MultiPoly, compose_series
from padicmech.series import PowerSeries, convergence_radius, elementary


class ExtensionUndefined(PadicError):
    """Q_p(i) is not a sensible quadratic extension for this prime."""


class NotNormalized(PadicError):
    """State weights do not sum to one; carries the exact deficit."""

    def __init__(self, message: str, deficit):
        super().__init__(message)
        self.deficit = deficit


# -- exact complex rationals -------------------------------------------------

class GaussianRational:
    """Exact complex rational a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return cls(x)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def times_conj(self) -> Fraction:
        """z * conj(z), always a rational (= re^2 + im^2)."""
        return self.re * self.re + self.im * self.im

    def padic_size(self, p: int) -> Fraction:
        """Max norm of the components, the natural |.|_p on Q_p(i)."""
        return max(padic_norm(self.re, p), padic_norm(self.im, p))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


# -- the quadratic extension --------------------------------------------------

class PadicComplex:
    """Pair (re, im) representing re + im*i over Q_p, p = 3 mod 4 only.

    For these primes -1 stays a non-square, the extension is unramified, and
    the norm is the max of the component norms.  p = 1 mod 4 already contains
    a square root of -1 and p = 2 ramifies, so both are rejected.
    """

    __slots__ = ("prime", "re", "im")

    def __init__(self, re: PadicNumber, im: PadicNumber):
        if not isinstance(re, PadicNumber) or not isinstance(im, PadicNumber):
            raise TypeError("components must be p-adic numbers")
        if re.prime != im.prime:
            raise PrimeMismatch(f"p={re.prime} vs p={im.prime}")
        p = re.prime
        if p % 4 != 3:
            detail = ("2 ramifies in the extension by i"
                      if p == 2 else f"-1 is already a square mod {p}")
            raise ExtensionUndefined(
                f"no unramified extension by i at p={p}: {detail}")
        self.prime = p
        self.re = re
        self.im = im

    @classmethod
    def of(cls, prime: int, re, im, precision: int = DEFAULT_PRECISION) -> "PadicComplex":
        return cls(PadicNumber.of(re, prime, precision),
                   PadicNumber.of(im, prime, precision))

    def conj(self) -> "PadicComplex":
        return PadicComplex(self.re, -self.im)

    def modulus_sq(self) -> PadicNumber:
        """z * conj(z) = re^2 + im^2 as a p-adic number."""
        return self.re * self.re + self.im * self.im

    def norm(self) -> Fraction:
        return max(self.re.norm(), self.im.norm())

    def __add__(self, other):
        if not isinstance(other, PadicComplex):
            return NotImplemented
        return PadicComplex(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return PadicComplex(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, PadicComplex):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PadicComplex):
            return NotImplemented
        return PadicComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def __eq__(self, other):
        if not isinstance(other, PadicComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})i"


def complex_ops(op: str, z: PadicComplex, w: Optional[PadicComplex] = None):
    """String-dispatched arithmetic over Q_p(i), for the command layer."""
    if op in ("add", "mul"):
        if w is None:
            raise ValueError(f"{op} needs two operands")
        return z + w if op == "add" else z * w
    if op == "conj":
        return z.conj()
    if op == "modulus_sq":
        return z.modulus_sq()
    raise ValueError(f"unknown complex op {op!r}")


# -- exact Hilbert space -------------------------------------------------------

class HilbertVector:
    """Coordinate vector with exact Gaussian-rational amplitudes."""

    __slots__ = ("prime", "coords")

    def __init__(self, prime: int, coords: Sequence):
        check_prime(prime)
        cs = tuple(GaussianRational.of(c) for c in coords)
        if not cs:
            raise ValueError("need at least one coordinate")
        self.prime = prime
        self.coords = cs

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        if not isinstance(other, HilbertVector):
            return NotImplemented
        return self.prime == other.prime and self.coords == other.coords


def _check_pair(x: HilbertVector, y: HilbertVector) -> None:
    if x.prime != y.prime:
        raise PrimeMismatch(f"p={x.prime} vs p={y.prime}")
    if x.dimension != y.dimension:
        raise ValueError(f"dimension {x.dimension} vs {y.dimension}")


def _gram_rows(gram, dim: int) -> List[List[Fraction]]:
    if gram is None:
        return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows = [[Fraction(e) for e in row] for row in gram]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("pairing matrix shape does not match the dimension")
    for i in range(dim):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("pairing matrix must be symmetric")
    return rows


def inner_product(x: HilbertVector, y: HilbertVector, gram=None) -> GaussianRational:
    """Symmetric bilinear pairing sum_ij g_ij x_i y_j (no conjugation)."""
    _check_pair(x, y)
    g = _gram_rows(gram, x.dimension)
    acc = GaussianRational(0)
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            if g[i][j]:
                acc = acc + xi * yj * g[i][j]
    return acc


def vector_norm(x: HilbertVector) -> Fraction:
    """Coordinate sup norm: the largest p-adic size among the amplitudes."""
    return max(c.padic_size(x.prime) for c in x.coords)


class SchwarzReport(NamedTuple):
    inner: GaussianRational
    inner_size: Fraction
    norm_x: Fraction
    norm_y: Fraction
    bounded: bool

    def as_dict(self) -> dict:
        return {
            "inner": str(self.inner),
            "inner_size": str(self.inner_size),
            "norm_x": str(self.norm_x),
            "norm_y": str(self.norm_y),
            "bounded": self.bounded,
        }


def schwarz_report(x: HilbertVector, y: HilbertVector, gram=None) -> SchwarzReport:
    """Check |(x,y)|_p <= ||x|| * ||y|| for the sup norm, with exact sizes."""
    val = inner_product(x, y, gram)
    size = val.padic_size(x.prime)
    nx, ny = vector_norm(x), vector_norm(y)
    return SchwarzReport(val, size, nx, ny, size <= nx * ny)


class SymmetricOperator:
    """Square matrix self-paired under the bilinear form: A^T G = G A."""

    __slots__ = ("prime", "entries", "gram")

    def __init__(self, prime: int, entries: Sequence[Sequence], gram=None):
        check_prime(prime)
        rows = tuple(tuple(GaussianRational.of(e) for e in row) for row in entries)
        dim = len(rows)
        if dim == 0 or any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square and nonempty")
        g = _gram_rows(gram, dim)
        for i in range(dim):
            for j in range(dim):
                lhs = GaussianRational(0)
                rhs = GaussianRational(0)
                for k in range(dim):
                    lhs = lhs + rows[k][i] * g[k][j]
                    rhs = rhs + rows[k][j] * g[i][k]
                if lhs != rhs:
                    raise ValueError("matrix is not symmetric for the pairing")
        self.prime = prime
        self.entries = rows
        self.gram = None if gram is None else tuple(tuple(r) for r in g)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def apply(self, x: HilbertVector) -> HilbertVector:
        if x.prime != self.prime:
            raise PrimeMismatch(f"p={self.prime} vs p={x.prime}")
        if x.dimension != self.dimension:
            raise ValueError(f"dimension {self.dimension} vs {x.dimension}")
        out = []
        for row in self.entries:
            acc = GaussianRational(0)
            for a, c in zip(row, x.coords):
                acc = acc + a * c
            out.append(acc)
        return HilbertVector(self.prime, out)

    def expectation(self, x: HilbertVector) -> GaussianRational:
        return inner_product(x, self.apply(x), self.gram)


# -- Born weights --------------------------------------------------------------

class BornReport(NamedTuple):
    weights: Tuple[GaussianRational, ...]
    normalized_ok: bool
    real_interpretable: bool

    def as_dict(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "normalized_ok": self.normalized_ok,
            "real_interpretable": self.real_interpretable,
        }


def mixed_state_probabilities(amplitudes: Sequence) -> BornReport:
    """Weights q_n^2 of a superposition with sum q_n^2 = 1 (exact).

    The squares use the same bilinear pairing as the inner product, so a
    complex amplitude can produce a weight outside [0, 1]; the report flags
    whether the weight vector still reads as ordinary probabilities.
    """
    qs = [GaussianRational.of(q) for q in amplitudes]
    if not qs:
        raise ValueError("need at least one amplitude")
    weights = tuple(q * q for q in qs)
    total = GaussianRational(0)
    for w in weights:
        total = total + w
    if total != GaussianRational(1):
        deficit = GaussianRational(1) - total
        raise NotNormalized(f"weights sum to {total}, off by {deficit}", deficit)
    realish = all(w.is_real and 0 <= w.re <= 1 for w in weights)
    return BornReport(weights, True, realish)


class RebasisReport(NamedTuple):
    amplitudes: Tuple[GaussianRational, ...]
    weights: Tuple[Fraction, ...]
    total: Fraction
    self_pairing: GaussianRational
    matches_self_pairing: bool

    def as_dict(self) -> dict:
        return {
            "amplitudes": [str(a) for a in self.amplitudes],
            "weights": [str(w) for w in self.weights],
            "total": str(self.total),
            "self_pairing": str(self.self_pairing),
            "matches_self_pairing": self.matches_self_pairing,
        }


def rebasis_probabilities(phi: HilbertVector, basis: Sequence[HilbertVector],
                          gram=None) -> RebasisReport:
    """Weights d_k * conj(d_k) of phi against an orthonormal basis.

    Requires (psi_i, psi_j) = delta_ij exactly under the pairing.  For real
    amplitude vectors the weights re-sum to (phi, phi) in any such basis.
    """
    basis = list(basis)
    if len(basis) != phi.dimension:
        raise ValueError("basis size must match the dimension")
    for b in basis:
        _check_pair(phi, b)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            want = GaussianRational(int(i == j))
            if inner_product(basis[i], basis[j], gram) != want:
                raise ValueError(f"basis vectors {i},{j} are not orthonormal")
    amps = tuple(inner_product(phi, b, gram) for b in basis)
    weights = tuple(d.times_conj() for d in amps)
    total = sum(weights, Fraction(0))
    self_pair = inner_product(phi, phi, gram)
    return RebasisReport(amps, weights, total, self_pair,
                         GaussianRational(total) == self_pair)


# -- plane waves ----------------------------------------------------------------

def plane_wave_fields(prime: int, momentum, energy, h: Optional[Fraction] = None,
                      degree: int = 24,
                      precision: int = DEFAULT_PRECISION) -> Tuple[MultiPoly, MultiPoly]:
    """Cosine and sine parts of the unit wave as polynomials in (t, x).

    The phase is (momentum*x - energy*t)/h with the quantum of action
    defaulting to h = 1/p, so for odd p and integral momentum/energy every
    phase coefficient sits inside the elementary-series radius.  p = 2 fails
    that check and is rejected by the composition guard.
    """
    check_prime(prime)
    h = Fraction(1, prime) if h is None else Fraction(h)
    if h == 0:
        raise ValueError("quantum of action must be nonzero")
    mom = PadicNumber.of(momentum, prime, precision)
    en = PadicNumber.of(energy, prime, precision)
    inv_h = PadicNumber.of(1 / h, prime, precision)
    theta = MultiPoly(prime, 2, {(1, 0): -en * inv_h, (0, 1): mom * inv_h})
    cos_part = compose_series(elementary("cos", prime, degree, precision), theta)
    sin_part = compose_series(elementary("sin", prime, degree, precision), theta)
    return cos_part, sin_part


def plane_wave(prime: int, momentum, energy, t, x, h: Optional[Fraction] = None,
               degree: int = 24, precision: int = DEFAULT_PRECISION) -> PadicComplex:
    """Wave value cos(theta) + i sin(theta) at integral time and position.

    The default degree keeps the omitted series tail well below the tracked
    precision for arguments in Z_p.  Needs p = 3 mod 4 for the value to live
    in a genuine quadratic extension.
    """
    cos_part, sin_part = plane_wave_fields(prime, momentum, energy, h, degree, precision)
    tv = PadicNumber.of(t, prime, precision)
    xv = PadicNumber.of(x, prime, precision)
    for name, v in (("t", tv), ("x", xv)):
        if v.norm_bound() > 1:
            raise DomainViolation(f"wave argument {name} lies outside Z_p",
                                  reason="state-domain")
    return PadicComplex(cos_part.evaluate([tv, xv]), sin_part.evaluate([tv, xv]))


def schrodinger_residual(cos_part: MultiPoly, sin_part: MultiPoly,
                         potential: MultiPoly, mass, h) -> Tuple[MultiPoly, MultiPoly]:
    """Defect of the paired fields under the evolution equation.

    For psi = C + iS in variables (t, x) the real and imaginary residuals are
        re = h*dS/dt - (h^2/2m)*d2C/dx2 + V*C
        im = -h*dC/dt - (h^2/2m)*d2S/dx2 + V*S
    and both vanish identically exactly when psi solves the equation.
    """
    p = cos_part.prime
    for f in (sin_part, potential):
        if f.prime != p:
            raise PrimeMismatch(f"p={p} vs p={f.prime}")
        if f.nvars != 2 or cos_part.nvars != 2:
            raise ValueError("fields must be polynomials in (t, x)")
    m = PadicNumber.of(mass, p)
    if m.is_zero:
        raise VanishingMass("mass must be invertible")
    hn = PadicNumber.of(Fraction(h), p)
    kappa = hn * hn / (m + m)
    re = sin_part.partial(0).scale(hn) - cos_part.partial(1).partial(1).scale(kappa) \
        + potential * cos_part
    im = cos_part.partial(0).scale(-hn) - sin_part.partial(1).partial(1).scale(kappa) \
        + potential * sin_part
    return re, im


# -- interference ---------------------------------------------------------------

def _ratio_coeffs(degree: int) -> List[Fraction]:
    """Coefficients of a*sin(a)/(1 - cos(a)) via exact series division."""
    # cancel the shared double zero: a*sin a = a^2 s(a), 1 - cos a = a^2 g(a)
    s = [Fraction(0)] * (degree + 1)
    g = [Fraction(0)] * (degree + 1)
    for n in range(0, degree + 1, 2):
        s[n] = Fraction((-1) ** (n // 2), math.factorial(n + 1))
        g[n] = Fraction((-1) ** (n // 2), math.factorial(n + 2))
    t: List[Fraction] = []
    for k in range(degree + 1):
        acc = s[k]
        for i, ti in enumerate(t):
            acc -= ti * g[k - i]
        t.append(acc / g[0])
    return t


def interference_term(prime: int, degree: int = 20,
                      precision: int = DEFAULT_PRECISION) -> PowerSeries:
    """The even series T(a) = a*sin(a)/(1 - cos(a)); T(0) = 2.

    Valid on the elementary-series disc, where 1 - cos(a) has the exact size
    |a|^2 / |2| and the quotient stays analytic.
    """
    check_prime(prime)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [PadicNumber.of(c, prime, precision) for c in _ratio_coeffs(degree)]
    return PowerSeries(prime, coeffs, radius=convergence_radius(prime))


# -- point spectra ----------------------------------------------------------------

class SpectrumWitness(NamedTuple):
    index: int
    energy: PadicNumber
    gap_norm: Fraction


class SpectrumReport(NamedTuple):
    level: int
    energy: PadicNumber
    witnesses: Tuple[SpectrumWitness, ...]

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "energy": str(self.energy),
            "witnesses": [
                {"index": w.index, "energy": str(w.energy), "gap_norm": str(w.gap_norm)}
                for w in self.witnesses
            ],
        }


def oscillator_spectrum(prime: int, frequency, level: int,
                        h: Optional[Fraction] = None, depth: int = 6,
                        precision: int = DEFAULT_PRECISION) -> SpectrumReport:
    """Evenly spaced levels E_n = h*w*n accumulate p-adically.

    The witnesses are the levels n + p^k for k = 1..depth: their indices run
    away in the usual ordering while their energies close in on E_n with
    |E_{n+p^k} - E_n| = |h*w| p^{-k}.
    """
    check_prime(prime)
    if level < 0:
        raise ValueError("level must be a nonnegative integer")
    if depth < 1:
        raise ValueError("need at least one witness")
    h = Fraction(1, prime) if h is None else Fraction(h)
    w = PadicNumber.of(frequency, prime, precision)
    step = PadicNumber.of(h, prime, precision) * w
    energy = step * level
    witnesses = []
    for k in range(1, depth + 1):
        idx = level + prime**k
        e_idx = step * idx
        gap = (e_idx - energy).norm()
        witnesses.append(SpectrumWitness(idx, e_idx, gap))
    return SpectrumReport(level, energy, tuple(witnesses))
