"""Exact p-adic arithmetic: Z_p residues, Q_p numbers, balls, and embeddings.

Values in Z_p are stored as residues mod p^K, i.e. the first K digits of the
canonical expansion x = a_0 + a_1 p + a_2 p^2 + ...  Values in Q_p are stored
in normalized form p^v * u with u a unit, so the norm |x|_p = p^(-v) is always
exact.  Addition renormalizes and records any precision loss instead of
absorbing it silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple, Union

DEFAULT_PRECISION = 12
ENUMERATION_CAP = 10**6  # most points a probe or an enumeration may visit

Rational = Union[int, Fraction]


def exceeds_cap(p: int, e: int, cap: int = ENUMERATION_CAP) -> bool:
    """p**e > cap for a prime p, decided without building p**e for a huge e."""
    return e > cap.bit_length() or p**e > cap


class PadicError(Exception):
    """Base class for p-adic domain errors."""


class PrimeMismatch(PadicError):
    """Operands built over different primes."""


class DomainViolation(PadicError):
    """A value left the certified domain of an analytic operation.

    `reason` is a short machine-readable tag, e.g. "series-radius" for an
    argument outside a convergence disc or "flow-window" for an unobservable
    flow time.
    """

    def __init__(self, message: str, reason: str = "domain"):
        super().__init__(message)
        self.reason = reason


_PRIME_CACHE = {2, 3, 5, 7, 11, 13}


def check_prime(p: int) -> int:
    if not isinstance(p, int):
        raise ValueError(f"prime must be an integer, got {p!r}")
    if p in _PRIME_CACHE:
        return p
    if p < 2:
        raise ValueError(f"{p} is not a prime")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"{p} is not a prime (composite bases admit zero divisors)")
        d += 1
    _PRIME_CACHE.add(p)
    return p


def _int_valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x: Rational, p: int) -> Optional[int]:
    """Valuation of a rational in Q_p; None for x = 0."""
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        return None
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def padic_norm(x: Rational, p: int) -> Fraction:
    """|x|_p as an exact rational; |0|_p = 0."""
    return valuation_and_norm(x, p)[1]


def valuation_and_norm(x: Rational, p: int) -> Tuple[Optional[int], Fraction]:
    """Pair (valuation, norm) of a rational; (None, 0) for x = 0."""
    v = padic_valuation(x, p)
    return v, (Fraction(0) if v is None else Fraction(p) ** -v)


def radius_exponent(r: Rational, p: int) -> int:
    """The exponent e with r = p^-e; ValueError unless r is a power of p."""
    num, den = r.numerator, r.denominator
    if num > 0:
        e = _int_valuation(den, p) - _int_valuation(num, p)
        if Fraction(p) ** -e == r:
            return e
    raise ValueError(f"{r} is not a power of p={p}")


class PadicInt:
    """Element of Z_p known to K digits: a residue mod p^K.

    Two values compare equal iff prime, precision, and all digits agree.
    Arithmetic between operands of different precision is carried out at the
    smaller precision.
    """

    __slots__ = ("prime", "precision", "residue")

    def __init__(self, prime: int, value: int = 0, precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if precision < 1:
            raise ValueError("precision must be at least 1 digit")
        if not isinstance(value, int):
            raise ValueError("PadicInt takes an integer value; use from_rational for unit fractions")
        self.prime = prime
        self.precision = precision
        self.residue = value % prime**precision

    @classmethod
    def from_digits(cls, prime: int, digits: Sequence[int]) -> "PadicInt":
        check_prime(prime)
        if not digits:
            raise ValueError("at least one digit required")
        value = 0
        for j, d in enumerate(digits):
            if not 0 <= d < prime:
                raise ValueError(f"digit {d} out of range for base {prime}")
            value += d * prime**j
        return cls(prime, value, precision=len(digits))

    @classmethod
    def from_rational(cls, x: Rational, prime: int, precision: int = DEFAULT_PRECISION) -> "PadicInt":
        """Embed a rational with unit denominator (no p in the denominator)."""
        x = Fraction(x)
        den = cls(prime, x.denominator, precision)  # checks the prime and the precision
        if not den.is_unit:
            raise ValueError(f"{x} is not a p-adic integer for p={prime}")
        return cls(prime, x.numerator, precision) / den

    @property
    def digits(self) -> Tuple[int, ...]:
        r, out = self.residue, []
        for _ in range(self.precision):
            r, d = divmod(r, self.prime)
            out.append(d)
        return tuple(out)

    @property
    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def valuation(self) -> Optional[int]:
        """Valuation of the residue; None when zero to this precision."""
        if self.residue == 0:
            return None
        return _int_valuation(self.residue, self.prime)

    def norm(self) -> Fraction:
        """|x|_p; a zero residue reports 0 (true value is then <= p^-K)."""
        v = self.valuation()
        return Fraction(0) if v is None else Fraction(self.prime) ** -v

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise PrimeMismatch(f"p={self.prime} vs p={other.prime}")
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, other, self.precision)
        return NotImplemented

    def _bin(self, other, fn):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.precision, other.precision)
        return PadicInt(self.prime, fn(self.residue, other.residue), k)

    def __add__(self, other):
        return self._bin(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._bin(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._bin(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.prime, -self.residue, self.precision)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.is_unit:
            raise ZeroDivisionError(
                "PadicInt division needs a unit divisor; use PadicNumber for general division")
        k = min(self.precision, other.precision)
        q = self.prime**k
        return PadicInt(self.prime, self.residue * pow(other.residue, -1, q), k)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers leave Z_p; use PadicNumber")
        q = self.prime**self.precision
        return PadicInt(self.prime, pow(self.residue, n, q), self.precision)

    def congruent(self, other, digits: Optional[int] = None) -> bool:
        """True when self == other mod p^digits (default: shared precision)."""
        other = self._coerce(other)
        k = min(self.precision, other.precision)
        if digits is None:
            digits = k
        if digits > k:
            raise ValueError(f"only {k} digits are tracked")
        q = self.prime**digits
        return (self.residue - other.residue) % q == 0

    def to_number(self) -> "PadicNumber":
        return PadicNumber.of(self, self.prime)

    def __int__(self) -> int:
        return self.residue

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.prime, other, self.precision)
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (self.prime == other.prime and self.precision == other.precision
                and self.residue == other.residue)

    def __hash__(self):
        return hash((self.prime, self.precision, self.residue))

    def __str__(self) -> str:
        return f"{self.prime}:{self.precision}:" + " ".join(str(d) for d in self.digits)

    __repr__ = __str__


def parse_padic_int(text: str) -> PadicInt:
    """Inverse of str(): `p:K:a0 a1 ... a_{K-1}` with little-endian digits."""
    try:
        p_s, k_s, digit_s = text.strip().split(":")
        p, k = int(p_s), int(k_s)
        digits = [int(d) for d in digit_s.split()]
    except ValueError as exc:
        raise ValueError(f"malformed Z_p literal {text!r}") from exc
    if len(digits) != k:
        raise ValueError(f"expected {k} digits, got {len(digits)} in {text!r}")
    return PadicInt.from_digits(p, digits)


class PadicNumber:
    """Element of Q_p in normalized form p^v * u with u a unit.

    The unit is kept as plain ints: its residue mod p^K and its digit count
    K (the relative precision); `unit` gives the same data as a PadicInt.
    Zero is represented separately: an exact zero, or "zero to absolute
    precision a" (written O(p^a)) produced when an addition cancels every
    tracked digit.  The known-cancellation depth is kept on the value so the
    loss is recorded rather than silently absorbed.

    `==` is congruence at the coarser precision, not identity: two nonzero
    values are equal when their valuations agree and their units agree mod
    p^min(K), any two zeros are equal whatever their depth, and an int or a
    Fraction is read at this value's precision first.  So `==` is not
    transitive, and an int equal to a value hashes differently from it.
    """

    __slots__ = ("prime", "_v", "_u", "_k", "_zero_known")

    def __init__(self, prime: int, value: Rational = 0, precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if precision < 1:
            raise ValueError("precision must be at least 1 digit")
        if isinstance(value, float):
            raise ValueError("floats are not exact; pass an int or Fraction")
        value = Fraction(value)
        self.prime, self._zero_known = prime, None
        if value == 0:
            self._v = self._u = self._k = None
            return
        num, den = value.numerator, value.denominator
        vn = _int_valuation(num, prime)
        vd = _int_valuation(den, prime)
        q = prime**precision
        self._v = vn - vd
        self._u = (num // prime**vn) * pow(den // prime**vd, -1, q) % q
        self._k = precision

    @classmethod
    def _make(cls, prime: int, v: int, u: int, k: int) -> "PadicNumber":
        """p^v * u from a unit residue u already reduced mod p^k."""
        out = object.__new__(cls)
        out.prime, out._v, out._u, out._k, out._zero_known = prime, v, u, k, None
        return out

    @classmethod
    def _normal(cls, prime: int, v: int, u: int, k: int) -> "PadicNumber":
        """p^v * u for a residue u mod p^k that may hold factors of p."""
        if u == 0:
            return cls.zero(prime, known_to=v + k)
        s = _int_valuation(u, prime)
        return cls._make(prime, v + s, u // prime**s, k - s)

    @classmethod
    def zero(cls, prime: int, known_to: Optional[int] = None) -> "PadicNumber":
        """Exact zero, or zero to absolute precision `known_to`."""
        check_prime(prime)
        out = object.__new__(cls)
        out.prime, out._v, out._u, out._k, out._zero_known = prime, None, None, None, known_to
        return out

    @classmethod
    def from_unit(cls, valuation: int, unit: PadicInt) -> "PadicNumber":
        return cls._normal(unit.prime, valuation, unit.residue, unit.precision)

    @classmethod
    def of(cls, x, prime: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        """Coerce an int, Fraction, PadicInt, or PadicNumber."""
        if isinstance(x, PadicNumber):
            if x.prime != prime:
                raise PrimeMismatch(f"p={prime} vs p={x.prime}")
            return x
        if isinstance(x, PadicInt):
            if x.prime != prime:
                raise PrimeMismatch(f"p={prime} vs p={x.prime}")
            return cls.from_unit(0, x)
        return cls(prime, x, precision)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._v is None

    @property
    def is_exact_zero(self) -> bool:
        return self._v is None and self._zero_known is None

    @property
    def valuation(self) -> Optional[int]:
        return self._v

    @property
    def unit(self) -> Optional[PadicInt]:
        return None if self._v is None else PadicInt(self.prime, self._u, self._k)

    @property
    def zero_known_to(self) -> Optional[int]:
        """Cancellation depth of an inexact zero, else None."""
        return self._zero_known

    @property
    def relative_precision(self) -> Optional[int]:
        return self._k

    @property
    def abs_precision(self):
        """Exponent a: the value is determined mod p^a (math.inf if exact 0)."""
        if self._v is not None:
            return self._v + self._k
        return math.inf if self._zero_known is None else self._zero_known

    def norm(self) -> Fraction:
        """|x|_p.  A zero reports 0; for an inexact zero the true norm is
        merely <= p^-zero_known_to, which callers can inspect."""
        return Fraction(0) if self._v is None else Fraction(self.prime) ** -self._v

    def norm_bound(self) -> Fraction:
        """Certified upper bound for |x|_p: equals norm() when the value is
        resolved, p^-zero_known_to for an inexact zero, 0 for exact zero."""
        if self._v is not None or self._zero_known is None:
            return self.norm()
        return Fraction(self.prime) ** -self._zero_known

    def residue(self, digits: int) -> int:
        """Integer value mod p^digits (valuation must be >= 0)."""
        if self.is_zero:
            if self._zero_known is not None and digits > self._zero_known:
                raise ValueError(f"only zero mod p^{self._zero_known} is certified")
            return 0
        if self._v < 0:
            raise ValueError("negative valuation: not a p-adic integer")
        if digits > self.abs_precision:
            raise ValueError(f"only {self.abs_precision} absolute digits are tracked")
        return self._u * self.prime**self._v % self.prime**digits

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "PadicNumber":
        if isinstance(other, PadicNumber):
            if other.prime != self.prime:
                raise PrimeMismatch(f"p={self.prime} vs p={other.prime}")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber(self.prime, other, self._k or DEFAULT_PRECISION)
        if isinstance(other, PadicInt):
            return PadicNumber.of(other, self.prime)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        p = a.prime
        if a.is_zero or b.is_zero:
            if a.is_zero and b.is_zero:
                ka, kb = a._zero_known, b._zero_known
                if ka is None:
                    return b
                if kb is None:
                    return a
                return PadicNumber.zero(p, min(ka, kb))
            zero, val = (a, b) if a.is_zero else (b, a)
            if zero._zero_known is None:
                return val
            cap = min(zero._zero_known, val.abs_precision)
            if val._v >= cap:
                return PadicNumber.zero(p, cap)
            m = cap - val._v
            return PadicNumber._make(p, val._v, val._u % p**m, m)
        w = min(a._v, b._v)
        cap = min(a._v + a._k, b._v + b._k)
        m = cap - w
        s = (a._u * p ** (a._v - w) + b._u * p ** (b._v - w)) % p**m
        return PadicNumber._normal(p, w, s, m)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber._make(self.prime, self._v, -self._u % self.prime**self._k, self._k)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_zero or b.is_zero:
            if a.is_exact_zero or b.is_exact_zero:
                return PadicNumber.zero(a.prime)
            bound = 0
            for z in (a, b):
                bound += z._zero_known if z.is_zero else z._v
            return PadicNumber.zero(a.prime, bound)
        k = min(a._k, b._k)
        return PadicNumber._make(a.prime, a._v + b._v, a._u * b._u % a.prime**k, k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            if other.is_exact_zero:
                raise ZeroDivisionError("division by zero in Q_p")
            raise ZeroDivisionError(
                f"divisor is zero mod p^{other._zero_known}: indistinguishable from 0 "
                "at the tracked precision")
        if self.is_zero:
            if self.is_exact_zero:
                return self
            return PadicNumber.zero(self.prime, self._zero_known - other._v)
        k = min(self._k, other._k)
        q = self.prime**k
        u = self._u * pow(other._u, -1, q) % q
        return PadicNumber._make(self.prime, self._v - other._v, u, k)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("only integer powers are defined")
        if n == 0:
            return PadicNumber._make(self.prime, 0, 1, self._k or DEFAULT_PRECISION)
        if self.is_zero:
            if n < 0:
                raise ZeroDivisionError("division by zero in Q_p")
            if self.is_exact_zero:
                return self
            return PadicNumber.zero(self.prime, self._zero_known * n)
        # a unit's power, or its inverse's, is again a unit mod p^k
        u = pow(self._u, n, self.prime**self._k)
        return PadicNumber._make(self.prime, self._v * n, u, self._k)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except PrimeMismatch:
            return False
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self._v != other._v:
            return False
        return (self._u - other._u) % self.prime ** min(self._k, other._k) == 0

    def __hash__(self):
        # equal values share their valuation and leading digit, whatever
        # their precisions; the digits past the first do not survive a cut
        if self.is_zero:
            return hash((self.prime, "zero"))
        return hash((self.prime, self._v, self._u % self.prime))

    def __str__(self) -> str:
        if self.is_zero:
            return f"v=0 {self.prime}:1:0"
        return f"v={self._v} {self.unit}"

    __repr__ = __str__


def parse_padic_number(text: str) -> PadicNumber:
    """Inverse of str(): `v=<int> p:K:digits`.  All-zero digits parse to 0."""
    text = text.strip()
    if not text.startswith("v="):
        raise ValueError(f"malformed Q_p literal {text!r}: missing v= prefix")
    head, _, rest = text.partition(" ")
    v = int(head[2:])
    unit = parse_padic_int(rest)
    if unit.residue == 0:
        return PadicNumber.zero(unit.prime)
    if not unit.is_unit:
        raise ValueError(f"unit part of {text!r} has a zero leading digit")
    return PadicNumber.from_unit(v, unit)


def metric(x, y) -> Fraction:
    """Ultrametric distance |x - y|_p as an exact rational."""
    if isinstance(x, PadicInt):
        x = x.to_number()
    if isinstance(y, PadicInt):
        y = y.to_number()
    if not isinstance(x, PadicNumber):
        x = PadicNumber.of(x, y.prime)
    if not isinstance(y, PadicNumber):
        y = PadicNumber.of(y, x.prime)
    return (x - y).norm()


def within(x: PadicNumber, y, exponent: int) -> bool:
    """Certify |x - y|_p <= p^-exponent at the tracked precision."""
    d = x - y if isinstance(y, (PadicNumber, int, Fraction)) else x - y.to_number()
    if d.is_zero:
        return d._zero_known is None or d._zero_known >= exponent
    return d.valuation >= exponent


# -- balls ------------------------------------------------------------------

DISJOINT = "disjoint"
FIRST_INSIDE_SECOND = "first-inside-second"
SECOND_INSIDE_FIRST = "second-inside-first"
EQUAL = "equal"


class _BallFields(NamedTuple):
    center: PadicInt
    level: int


class Ball(_BallFields):
    """Closed ball U_r(center) in Z_p with r = p^-level.

    level counts the fixed leading digits; level 0 is all of Z_p.  Membership
    is decidable from the tracked digits only when level <= K.
    """

    __slots__ = ()

    def __new__(cls, center: PadicInt, level: int) -> "Ball":
        if level < 0:
            raise ValueError("radius above 1 leaves Z_p")
        if level > center.precision:
            raise ValueError(
                f"radius p^-{level} below representable precision K={center.precision}")
        return super().__new__(cls, center, level)

    @classmethod
    def from_radius(cls, center: PadicInt, radius: Rational) -> "Ball":
        return cls(center, radius_exponent(radius, center.prime))

    @property
    def prime(self) -> int:
        return self.center.prime

    @property
    def radius(self) -> Fraction:
        return Fraction(self.prime) ** -self.level

    def contains(self, x) -> bool:
        return self.center.congruent(x, self.level) if self.level else True

    def members(self, depth: int):
        """All residues mod p^depth lying in the ball (depth >= level)."""
        p = self.prime
        if depth < self.level or depth > self.center.precision:
            raise ValueError("depth must lie between the ball level and K")
        base = self.center.residue % p**self.level
        step = p**self.level
        for h in range(p ** (depth - self.level)):
            yield PadicInt(p, base + h * step, depth)


def ball_relation(b1: Ball, b2: Ball) -> str:
    """Exhaustive four-way classification; partial overlap cannot occur."""
    if b1.prime != b2.prime:
        raise PrimeMismatch(f"p={b1.prime} vs p={b2.prime}")
    coarse = min(b1.level, b2.level)
    if not b1.center.congruent(b2.center, coarse):
        return DISJOINT
    if b1.level == b2.level:
        return EQUAL
    return SECOND_INSIDE_FIRST if b1.level < b2.level else FIRST_INSIDE_SECOND


# -- real embeddings --------------------------------------------------------

class MonnaImage(NamedTuple):
    value: Fraction
    error_bound: Fraction


def monna_embed(x, k: int, base: Optional[int] = None) -> MonnaImage:
    """Digit map sum(a_l * m^l) -> sum(a_l / k^(l+1)) from Z_m into [0, 1].

    Accepts a PadicInt (base = its prime) or a raw digit sequence with an
    explicit base.  The image of a truncated expansion under-determines the
    true image; the returned error bound covers every possible digit tail.
    """
    if isinstance(x, PadicInt):
        digits, m = x.digits, x.prime
    else:
        digits = tuple(x)
        if base is None:
            raise ValueError("raw digit sequences need an explicit base")
        m = base
    if m < 2:
        raise ValueError("base must exceed 1")
    if k < m:
        raise ValueError(f"k={k} must be at least the base m={m}")
    if any(not 0 <= d < m for d in digits):
        raise ValueError("digit out of range")
    value = sum(Fraction(d, k ** (l + 1)) for l, d in enumerate(digits))
    bound = Fraction(m - 1, (k - 1) * k ** len(digits))
    return MonnaImage(value, bound)


class ArchimedeanExpansion(NamedTuple):
    integer_part: int
    digits: Tuple[int, ...]
    residual: Fraction


def archimedean_expand(x: Rational, m: int, steps: int) -> ArchimedeanExpansion:
    """Greedy base-m measurement of a positive rational.

    Returns the integer part n-1 (largest with n-1 <= x) and `steps` digits of
    the fractional part, each digit from comparing against units m^-j.  The
    partial sum under-approximates x with residual < m^-steps.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("only positive quantities can be measured")
    if m < 2:
        raise ValueError("base must exceed 1")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    whole = x.numerator // x.denominator
    rest = x - whole
    out = []
    for j in range(1, steps + 1):
        d = int(rest * m**j)  # floor; rest < m^-(j-1) keeps d < m
        out.append(d)
        rest -= Fraction(d, m**j)
    return ArchimedeanExpansion(whole, tuple(out), rest)
