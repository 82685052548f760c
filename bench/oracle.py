"""Reference arithmetic for checking benchmark outputs.

Nothing here imports padicmech.  Values are exact `Fraction`s and plain
ints; literals are parsed and printed by this module's own code.  `Approx`
re-states the library's documented precision rules (a value is known modulo
p^a) so that expected outputs can be compared digit for digit, including the
number of digits the library claims to know.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction


def vp_int(n: int, p: int) -> int:
    """Largest v with p^v dividing the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int):
    """Valuation of a rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def norm(x, p: int) -> Fraction:
    v = vp(x, p)
    if v is None:
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)


def legendre(n: int, p: int) -> int:
    """v_p(n!) by summing v_p(j) over j <= n."""
    return sum(vp_int(j, p) for j in range(2, n + 1))


def residue_of(x: Fraction, p: int, k: int) -> int:
    """x mod p^k for x with no p in the denominator."""
    q = p**k
    return x.numerator * pow(x.denominator, -1, q) % q


def digits(r: int, p: int, k: int):
    out = []
    for _ in range(k):
        r, d = divmod(r, p)
        out.append(d)
    return out


def fmt_zp(p: int, k: int, r: int) -> str:
    return f"{p}:{k}:" + " ".join(str(d) for d in digits(r, p, k))


def parse_zp(text: str):
    """(p, k, residue) from `p:k:d0 d1 ...`."""
    p_s, k_s, d_s = text.strip().split(":")
    p, k = int(p_s), int(k_s)
    ds = [int(d) for d in d_s.split()]
    if len(ds) != k or any(not 0 <= d < p for d in ds):
        raise ValueError(f"bad Z_p literal {text!r}")
    return p, k, sum(d * p**j for j, d in enumerate(ds))


class Num:
    """A parsed Q_p value: zero (exact or to depth `known`) or p^v * unit mod p^rel."""

    __slots__ = ("p", "v", "rel", "unit", "known")

    def __init__(self, p, v=None, rel=None, unit=None, known=None):
        self.p, self.v, self.rel, self.unit, self.known = p, v, rel, unit, known

    @property
    def is_zero(self):
        return self.v is None

    @property
    def abs_prec(self):
        if self.v is not None:
            return self.v + self.rel
        return self.known  # None: exact zero

    def value(self) -> Fraction:
        if self.v is None:
            return Fraction(0)
        return self.unit * Fraction(self.p) ** self.v

    def key(self):
        return (self.p, self.v, self.rel, self.unit, self.known)


def parse_qp(text: str) -> Num:
    """Parse `v=<v> p:K:digits`.  An all-zero unit is a zero of unknown depth."""
    head, _, rest = text.strip().partition(" ")
    if not head.startswith("v="):
        raise ValueError(f"bad Q_p literal {text!r}")
    v = int(head[2:])
    p, k, r = parse_zp(rest)
    if r == 0:
        return Num(p, known=None)
    if r % p == 0:
        raise ValueError(f"unit of {text!r} is divisible by p")
    return Num(p, v, k, r)


def from_library(x) -> Num:
    """Read a library number through its public accessors only."""
    if x.is_zero:
        return Num(x.prime, known=x.zero_known_to)
    return Num(x.prime, x.valuation, x.unit.precision, x.unit.residue)


def agrees(got: Num, exact) -> bool:
    """True when `got` equals the exact rational to every digit it claims."""
    exact = Fraction(exact)
    if got.is_zero:
        if got.known is None:
            return exact == 0
        return exact == 0 or vp(exact, got.p) >= got.known
    if got.rel < 1:
        return False
    d = exact - got.value()
    return d == 0 or vp(d, got.p) >= got.v + got.rel


def series_literal(p: int, coeff_texts) -> str:
    return f"{p}:{len(coeff_texts) - 1}:[" + ",".join(coeff_texts) + "]"


WORK = 96  # digits of p carried for every unit, far beyond any tracked precision


class Approx:
    """A rational known modulo p^a; a is None for an exact value.

    The rules re-state the library's documented semantics: a nonzero value
    carries a relative precision (digits of its unit), sums are known to the
    smaller absolute precision, products and quotients to the smaller
    relative precision, and a sum that cancels every known digit becomes a
    zero known to that depth.  A nonzero value is stored as p^v * u with the
    unit u correct modulo p^k, where k starts at WORK digits and only drops
    when a sum cancels leading digits.
    """

    __slots__ = ("p", "v", "u", "k", "a")

    def __init__(self, p, v, u, k, a):
        self.p, self.v, self.u, self.k, self.a = p, v, u, k, a

    @classmethod
    def zero(cls, p, a=None):
        """Exact zero (a None) or zero known to absolute precision a."""
        return cls(p, None, 0, 0, a)

    @classmethod
    def of(cls, x, p, rel):
        """The library's PadicNumber(p, x, rel) for a rational x."""
        x = Fraction(x)
        if x == 0:
            return cls.zero(p)
        v = vp(x, p)
        return cls(p, v, residue_of(x / Fraction(p) ** v, p, WORK), WORK, v + rel)

    @classmethod
    def from_residue(cls, p, r, k):
        """A Z_p residue r mod p^k read as a field element."""
        if r == 0:
            return cls.zero(p, k)
        v = vp_int(r, p)
        return cls(p, v, r // p**v, WORK, k)

    @property
    def is_zero(self):
        return self.v is None

    @property
    def is_exact_zero(self):
        return self.v is None and self.a is None

    @property
    def rel(self):
        return self.a - self.v

    def __add__(self, o):
        p = self.p
        a = o.a if self.a is None else self.a if o.a is None else min(self.a, o.a)
        if self.v is None or o.v is None:
            val = self if o.v is None else o
            if val.v is None or val.v >= a:
                return Approx.zero(p, a)
            return Approx(p, val.v, val.u, val.k, a)
        w = min(self.v, o.v)
        known = min(self.k + self.v, o.k + o.v) - w
        s = (self.u * p ** (self.v - w) + o.u * p ** (o.v - w)) % p**known
        if s == 0:
            if w + known < a:
                raise ArithmeticError("oracle working precision exhausted")
            return Approx.zero(p, a)
        shift = vp_int(s, p)
        if w + shift >= a:
            return Approx.zero(p, a)
        return Approx(p, w + shift, s // p**shift, known - shift, a)

    def __neg__(self):
        if self.v is None:
            return self
        return Approx(self.p, self.v, -self.u % self.p**self.k, self.k, self.a)

    def __sub__(self, o):
        return self + (-o)

    def _exp(self):
        """Valuation, or the known depth of an inexact zero."""
        return self.a if self.v is None else self.v

    def __mul__(self, o):
        p = self.p
        if self.is_exact_zero or o.is_exact_zero:
            return Approx.zero(p)
        if self.v is None or o.v is None:
            return Approx.zero(p, self._exp() + o._exp())
        k = min(self.k, o.k)
        v = self.v + o.v
        return Approx(p, v, self.u * o.u % p**k, k, v + min(self.rel, o.rel))

    def __truediv__(self, o):
        p = self.p
        if o.v is None:
            raise ZeroDivisionError("division by a zero")
        if self.v is None:
            return self if self.a is None else Approx.zero(p, self.a - o.v)
        k = min(self.k, o.k)
        v = self.v - o.v
        return Approx(p, v, self.u * pow(o.u, -1, p**k) % p**k, k, v + min(self.rel, o.rel))

    def num(self) -> Num:
        if self.v is None:
            return Num(self.p, known=self.a)
        if self.rel > self.k:
            raise ArithmeticError("oracle working precision exhausted")
        return Num(self.p, self.v, self.rel, self.u % self.p**self.rel)

    def norm_bound(self) -> Fraction:
        """|x|_p when nonzero, p^-a for a zero known to depth a, 0 when exact."""
        e = self.a if self.v is None else self.v
        if e is None:
            return Fraction(0)
        return Fraction(1, self.p**e) if e >= 0 else Fraction(self.p**-e)

    def text(self) -> str:
        """The library's literal: zeros print as `v=0 p:1:0`."""
        if self.v is None:
            return f"v=0 {self.p}:1:0"
        n = self.num()
        return f"v={n.v} {fmt_zp(self.p, n.rel, n.unit)}"


def norm_text(x: Approx) -> str:
    if x.v is None:
        return "0"
    return str(Fraction(1, x.p**x.v) if x.v >= 0 else Fraction(x.p**-x.v))


def horner(coeffs, x):
    acc = Approx.zero(x.p)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_value(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sup_norm(ints, p: int, kmin: int, depth: int):
    """(max, bound, certified) of |f(c)|_p over residues c mod p^depth for a
    polynomial with integer coefficients known mod p^kmin."""
    big, best = p**kmin, Fraction(0)
    for c in range(p**depth):
        val = 0
        for coef in reversed(ints):
            val = (val * c + coef) % big
        if val:
            best = max(best, Fraction(1, p ** vp_int(val, p)))
    floor = Fraction(1, p**depth)
    return best, max(best, floor), best >= floor


def unit_split(c, p: int, k: int):
    """(e, w) with c = p^e * w and w reduced mod p^k; None for zero."""
    e = vp(c, p)
    if e is None:
        return None
    return e, residue_of(Fraction(c) / Fraction(p) ** e, p, k)


def partial_sum_mod(pairs, x, p: int, k: int) -> int:
    """sum c_n x^n mod p^k from unit_split pairs (each known mod p^k or
    better); every term must be p-integral."""
    vx = vp(x, p)
    ux = residue_of(Fraction(x) / Fraction(p) ** vx, p, k)
    q, total = p**k, 0
    for n, pair in enumerate(pairs):
        if pair is None:
            continue
        e = pair[0] + n * vx
        if e < 0:
            raise ValueError("term outside Z_p")
        if e < k:
            total += p**e * pair[1] * pow(ux, n, q)
    return total % q


def trunc_mul(f, g, d):
    """Exact truncated product of two rational coefficient lists."""
    out = [Fraction(0)] * (d + 1)
    for i, a in enumerate(f[: d + 1]):
        if a:
            for j, b in enumerate(g[: d + 1 - i]):
                out[i + j] += a * b
    return out


def elementary_coeffs(kind: str, degree: int):
    out = []
    for n in range(degree + 1):
        c = Fraction(1, math.factorial(n))
        if kind == "sin":
            c = c * (-1) ** (n // 2) if n % 2 else Fraction(0)
        elif kind == "cos":
            c = c * (-1) ** (n // 2) if n % 2 == 0 else Fraction(0)
        elif kind != "exp":
            raise ValueError(kind)
        out.append(c)
    return out


def bernoulli(n: int):
    """B_0..B_n with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def interference_coeffs(degree: int):
    """a sin(a)/(1 - cos a) = a cot(a/2) = 2 sum (-1)^n B_2n a^2n / (2n)!."""
    b = bernoulli(degree)
    return [2 * (-1) ** (n // 2) * b[n] / math.factorial(n) if n % 2 == 0 else Fraction(0)
            for n in range(degree + 1)]


@functools.lru_cache(maxsize=None)
def tail_exponent(degree: int, vx: int, p: int) -> int:
    """min over the next 65 omitted terms of n*v(x) - v_p(n!)."""
    return min(n * vx - legendre(n, p) for n in range(degree + 1, degree + 66))


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def render_record(data: dict, fmt) -> str:
    """Key/value output as the CLI documents it: JSON, or a key,value CSV."""
    if fmt == "csv":
        rows = [["key", "value"]]
        for k in sorted(data):
            v = data[k]
            rows.append([k, v if isinstance(v, str) else json.dumps(v, sort_keys=True)])
        return csv_text(rows)
    return json.dumps(data, sort_keys=True)


def render_table(header, rows, fmt) -> str:
    if fmt == "json":
        return json.dumps({"columns": list(header), "rows": [list(r) for r in rows]},
                          sort_keys=True)
    return csv_text([list(header), *[list(r) for r in rows]])


def parse_table(text: str, fmt):
    """(header, rows) from a CLI table in either format."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["columns"], obj["rows"]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def parse_record(text: str, fmt) -> dict:
    """Key/value CLI output as a dict of JSON values."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        out = {}
        for k, v in rows[1:]:
            try:
                out[k] = json.loads(v)
            except ValueError:
                out[k] = v
        return out
    return json.loads(text)


def gauss_text(re: Fraction, im: Fraction) -> str:
    """Gaussian rational printed as the CLI prints it."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
