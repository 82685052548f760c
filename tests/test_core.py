"""Core arithmetic: every derived expectation is computed by an oracle first.

Oracles here are deliberately primitive: trial division for valuations,
big-integer arithmetic reduced mod p^K, extended Euclid via pow(-1) for
inverses.  The library must agree with them exactly.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmech.core import (
    DEFAULT_PRECISION,
    DISJOINT,
    EQUAL,
    FIRST_INSIDE_SECOND,
    SECOND_INSIDE_FIRST,
    Ball,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    archimedean_expand,
    ball_relation,
    metric,
    monna_embed,
    padic_norm,
    padic_valuation,
    parse_padic_int,
    parse_padic_number,
    radius_exponent,
    valuation_and_norm,
    within,
)
from padicmech.mechanics import HamiltonianSpec, PhaseState, taylor_integrate
from padicmech.multi import MultiPoly
from padicmech.quantum import plane_wave_fields
from padicmech.series import elementary, evaluate

PRIMES = [2, 3, 5, 7, 11, 13]


# --- oracles ----------------------------------------------------------------

def oracle_valuation(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_norm(x: Fraction, p: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    v = oracle_valuation(x.numerator, p) - oracle_valuation(x.denominator, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)


rationals = st.fractions(min_value=-10**6, max_value=10**6)
nonzero_rationals = rationals.filter(lambda q: q != 0)


# --- valuation and norm ------------------------------------------------------

def test_valuation_examples():
    assert valuation_and_norm(12, 2) == (2, Fraction(1, 4))
    assert valuation_and_norm(0, 5) == (None, Fraction(0))
    assert valuation_and_norm(Fraction(7, 12), 2) == (-2, Fraction(4))


@given(q=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_norm_matches_trial_division_oracle(q, p):
    assert padic_norm(q, p) == oracle_norm(q, p)


def test_rejects_composite_base():
    with pytest.raises(ValueError):
        padic_valuation(3, 10)
    with pytest.raises(ValueError):
        PadicInt(6, 1)


# --- PadicInt: oracle equivalence --------------------------------------------

@given(a=st.integers(-10**9, 10**9), b=st.integers(-10**9, 10**9),
       p=st.sampled_from(PRIMES))
def test_residue_ring_matches_bigint_oracle(a, b, p):
    k = 8
    q = p**k
    xa, xb = PadicInt(p, a, k), PadicInt(p, b, k)
    assert (xa + xb).residue == (a + b) % q
    assert (xa - xb).residue == (a - b) % q
    assert (xa * xb).residue == (a * b) % q


def test_division_by_unit_frozen_from_euclid_oracle():
    # Oracle first: inverse of 3 mod 7^3 by extended Euclid.
    inv3 = pow(3, -1, 7**3)
    assert 3 * inv3 % 7**3 == 1
    assert inv3 == 229
    got = PadicInt(7, 1, 3) / PadicInt(7, 3, 3)
    assert got.residue == inv3


def test_unit_division_requires_unit():
    with pytest.raises(ZeroDivisionError):
        PadicInt(5, 1, 3) / PadicInt(5, 10, 3)


def test_mixed_precision_uses_smaller():
    a = PadicInt(5, 7, 10)
    b = PadicInt(5, 9, 4)
    assert (a * b).precision == 4
    assert (a * b).residue == 63 % 5**4


def test_digits_roundtrip():
    x = PadicInt.from_digits(5, (1, 2, 0))
    assert x.residue == 1 + 2 * 5
    assert x.digits == (1, 2, 0)
    assert PadicInt(3, -1, 4).digits == (2, 2, 2, 2)


def test_equality_needs_same_precision_and_digits():
    assert PadicInt(5, 6, 3) == PadicInt(5, 6, 3)
    assert PadicInt(5, 6, 3) != PadicInt(5, 6, 4)
    assert PadicInt(5, 6, 3) == 6
    assert PadicInt(5, 6, 3).congruent(PadicInt(5, 6 + 125, 3))


# --- PadicNumber -------------------------------------------------------------

def test_arith_examples():
    p5 = lambda x: PadicNumber(5, x, 3)
    s = p5(1) + p5(-1)
    assert s.is_zero and s.zero_known_to == 3
    prod = p5(2) * p5(3)
    assert prod.unit.digits == (1, 1, 0)
    assert prod.valuation == 0


def test_normalized_form_examples():
    x = PadicNumber(2, Fraction(7, 12), 5)
    assert x.valuation == -2
    assert x.norm() == 4
    # 7/12 = 2^-2 * 7/3; unit residue = 7 * inv(3) mod 2^5 (oracle)
    assert x.unit.residue == 7 * pow(3, -1, 32) % 32


@given(a=nonzero_rationals, b=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_field_ops_agree_with_rational_oracle(a, b, p):
    k = 16
    xa, xb = PadicNumber(p, a, k), PadicNumber(p, b, k)
    for op, ref in ((xa + xb, a + b), (xa - xb, a - b), (xa * xb, a * b),
                    (xa / xb, a / b)):
        if ref == 0:
            assert op.is_zero
        else:
            assert op == PadicNumber(p, ref, k)
            assert op.norm() == oracle_norm(Fraction(ref), p)


def test_division_by_any_zero_rejected():
    x = PadicNumber(5, 3)
    with pytest.raises(ZeroDivisionError):
        x / PadicNumber.zero(5)
    cancel = PadicNumber(5, 7) - PadicNumber(5, 7)
    with pytest.raises(ZeroDivisionError):
        x / cancel


def test_cancellation_depth_is_recorded():
    k = 6
    a = PadicNumber(5, 1 + 5**4, k)   # known mod 5^6
    b = PadicNumber(5, 1, k)
    d = a - b
    assert d.valuation == 4 and d.relative_precision == 2
    full = a - a
    assert full.is_zero and not full.is_exact_zero and full.zero_known_to == 6


def test_add_unequal_valuations_caps_absolute_precision():
    big = PadicNumber(5, 5**4 * 7, 3)       # abs precision 7
    small = PadicNumber(5, 2, 3)            # abs precision 3
    s = small + big
    assert s.abs_precision == 3
    assert s.valuation == 0


def test_pow_and_residue():
    x = PadicNumber(7, 3, 6)
    assert (x**3).residue(6) == 27
    assert (x**-2) * (x**2) == PadicNumber(7, 1, 6)
    e5 = PadicNumber(5, Fraction(1, 3), 4)
    assert within(e5 * 3, PadicNumber(5, 1, 4), 4)


# --- metric and ultrametric properties ----------------------------------------

def test_metric_examples():
    p = 7
    x = PadicNumber(p, 12)
    assert metric(x, x) == 0
    assert metric(PadicNumber(p, 0), PadicNumber(p, p)) == Fraction(1, 7)
    assert metric(PadicNumber(p, 1), PadicNumber(p, 1 + p**3)) == Fraction(1, p**3)
    with pytest.raises(PrimeMismatch):
        metric(PadicNumber(5, 1), PadicNumber(7, 1))


@given(a=rationals, b=rationals, p=st.sampled_from(PRIMES))
def test_strong_triangle_inequality(a, b, p):
    na, nb = oracle_norm(a, p), oracle_norm(b, p)
    ns = oracle_norm(a + b, p)
    assert ns <= max(na, nb)
    if na != nb:
        assert ns == max(na, nb)


@given(a=nonzero_rationals, b=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_norm_multiplicativity(a, b, p):
    x, y = PadicNumber(p, a), PadicNumber(p, b)
    assert (x * y).norm() == x.norm() * y.norm()


@given(a=rationals, b=rationals, p=st.sampled_from(PRIMES))
def test_padic_number_triangle(a, b, p):
    x, y = PadicNumber(p, a), PadicNumber(p, b)
    assert (x + y).norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert (x + y).norm() == max(x.norm(), y.norm())


# --- balls --------------------------------------------------------------------

def test_ball_examples():
    p = 5
    c0 = PadicInt(p, 0, 6)
    whole = Ball.from_radius(c0, 1)
    tenth = Ball.from_radius(c0, Fraction(1, p))
    assert ball_relation(whole, tenth) == SECOND_INSIDE_FIRST
    shifted = Ball.from_radius(PadicInt(p, 1, 6), Fraction(1, p))
    assert ball_relation(tenth, shifted) == DISJOINT
    recentered = Ball.from_radius(PadicInt(p, p, 6), Fraction(1, p))
    assert ball_relation(tenth, recentered) == EQUAL


def test_ball_membership_and_center_freedom():
    p = 3
    b = Ball(PadicInt(p, 4, 5), 2)  # radius 1/9
    for member in b.members(4):
        assert b.contains(member)
        # any member can serve as the center
        assert ball_relation(b, Ball(PadicInt(p, member.residue, 5), 2)) == EQUAL


def test_ball_relation_is_exhaustive_four_way():
    p = 3
    seen = set()
    balls = [Ball(PadicInt(p, c, 3), lvl) for lvl in range(4) for c in range(27)]
    for b1 in balls:
        for b2 in balls:
            rel = ball_relation(b1, b2)
            seen.add(rel)
            assert rel in {DISJOINT, FIRST_INSIDE_SECOND, SECOND_INSIDE_FIRST, EQUAL}
            # cross-check against brute membership at depth 3
            m1 = {x.residue for x in b1.members(3)}
            m2 = {x.residue for x in b2.members(3)}
            if rel == DISJOINT:
                assert not (m1 & m2)
            elif rel == EQUAL:
                assert m1 == m2
            elif rel == FIRST_INSIDE_SECOND:
                assert m1 < m2
            else:
                assert m2 < m1
    assert seen == {DISJOINT, FIRST_INSIDE_SECOND, SECOND_INSIDE_FIRST, EQUAL}


def test_ball_radius_validation():
    c = PadicInt(5, 0, 3)
    with pytest.raises(ValueError):
        Ball.from_radius(c, Fraction(1, 10))
    with pytest.raises(ValueError):
        Ball(c, 4)  # finer than the tracked digits
    with pytest.raises(ValueError):
        Ball(c, -1)  # radius above 1 leaves Z_p


@given(p=st.sampled_from([2, 3, 5, 7, 11]), e=st.integers(-6, 12))
def test_radius_exponent_round_trips_powers_of_p(p, e):
    assert radius_exponent(Fraction(p) ** -e, p) == e


@given(p=st.sampled_from([2, 3, 5, 7, 11]), e=st.integers(-6, 12))
def test_radius_exponent_rejects_non_powers(p, e):
    # q is a prime other than p, so q/p^2 and 1/(q p) are never powers of p
    q = 3 if p == 2 else 2
    for r in (0, -(Fraction(p) ** -e), 6, Fraction(q, p**2), Fraction(1, q * p)):
        with pytest.raises(ValueError, match="is not a power"):
            radius_exponent(r, p)


# --- Monna embedding -----------------------------------------------------------

def test_monna_examples():
    img = monna_embed((1, 0, 0), k=2, base=2)
    assert img.value == Fraction(1, 2)
    assert monna_embed((0, 0, 0, 0), k=2, base=2).value == 0
    x = PadicInt.from_digits(3, (1, 2, 0, 1))
    val = Fraction(1, 3) + Fraction(2, 9) + Fraction(1, 81)
    assert monna_embed(x, k=3) == (val, Fraction(2, 2 * 81))


def test_monna_ball_image_stays_in_half_interval():
    # ball {a_0 = 0} in Z_2: exhaustive over 2^(K-1) digit strings
    K = 8
    for h in range(2 ** (K - 1)):
        digits = (0,) + tuple((h >> i) & 1 for i in range(K - 1))
        img = monna_embed(digits, k=2, base=2)
        assert img.value + img.error_bound <= Fraction(1, 2)


def test_monna_injective_and_order_embedding_when_k_exceeds_m():
    m, k, K = 2, 3, 6
    strings = []
    for h in range(m**K):
        digits = []
        hh = h
        for _ in range(K):
            hh, d = divmod(hh, m)
            digits.append(d)
        strings.append(tuple(digits))
    values = {s: monna_embed(s, k=k, base=m).value for s in strings}
    assert len(set(values.values())) == len(strings)
    # big-endian significance: a_0 dominates, so compare tuples as written
    ordered = sorted(strings)
    for s1, s2 in zip(ordered, ordered[1:]):
        assert values[s1] < values[s2]


def test_monna_rejects_small_k():
    with pytest.raises(ValueError):
        monna_embed((1, 0), k=2, base=3)


# --- Archimedean measurement ----------------------------------------------------

def test_archimedean_examples():
    assert archimedean_expand(Fraction(7, 4), 2, 2) == (1, (1, 1), Fraction(0))
    assert archimedean_expand(Fraction(1, 3), 10, 3) == (0, (3, 3, 3), Fraction(1, 3000))
    assert archimedean_expand(5, 2, 1) == (5, (0,), Fraction(0))
    with pytest.raises(ValueError):
        archimedean_expand(0, 2, 3)


@given(q=st.fractions(min_value=Fraction(1, 1000), max_value=1000),
       m=st.integers(2, 12), steps=st.integers(0, 8))
def test_archimedean_partial_sum_underapproximates(q, m, steps):
    whole, digits, residual = archimedean_expand(q, m, steps)
    assert all(0 <= d < m for d in digits)
    partial = whole + sum(Fraction(d, m**j) for j, d in enumerate(digits, start=1))
    assert partial + residual == q
    assert 0 <= residual < Fraction(1, m**steps)


# --- canonical text forms --------------------------------------------------------

def test_text_examples():
    x = PadicInt.from_digits(5, (1, 2, 0))
    assert str(x) == "5:3:1 2 0"
    assert parse_padic_int("5:3:1 2 0") == x
    y = PadicNumber(2, Fraction(7, 12), 5)
    assert parse_padic_number(str(y)) == y
    z = PadicNumber.zero(3)
    assert parse_padic_number(str(z)).is_zero


@given(p=st.sampled_from(PRIMES), value=st.integers(0, 10**8),
       k=st.integers(1, 16))
def test_zint_text_roundtrip(p, value, k):
    x = PadicInt(p, value, k)
    assert parse_padic_int(str(x)) == x


@given(p=st.sampled_from(PRIMES), q=nonzero_rationals, k=st.integers(1, 16))
def test_number_text_roundtrip(p, q, k):
    x = PadicNumber(p, q, k)
    y = parse_padic_number(str(x))
    assert y == x and y.valuation == x.valuation
    assert y.unit.digits == x.unit.digits


def test_malformed_text_rejected():
    for bad in ("5:3:1 2", "4:1:1", "x", "v=1 5:2:0 1 2", "5:2:9 0"):
        with pytest.raises(ValueError):
            parse_padic_int(bad) if ":" in bad and not bad.startswith("v=") else parse_padic_number(bad)


def test_equal_numbers_at_different_precisions_hash_alike():
    x, y = PadicNumber(5, 126, 5), PadicNumber(5, 1, 3)
    assert x == y
    assert hash(x) == hash(y) and len({x, y}) == 1


@given(q=nonzero_rationals, p=st.sampled_from(PRIMES), ka=st.integers(1, 12),
       kb=st.integers(1, 12))
def test_equality_implies_equal_hashes_across_precisions(q, p, ka, kb):
    a, b = PadicNumber(p, q, ka), PadicNumber(p, q, kb)
    assert a == b
    assert hash(a) == hash(b)


# --- flat scalar against the nested representation ---------------------------
#
# The reference keeps a Q_p value as p^v times a PadicInt unit and does every
# operation through PadicInt, as PadicNumber once did.  The flat ints must
# reproduce it on (valuation, unit residue, relative precision, zero_known_to)
# after every step of a random chain.

class NestedNumber:
    def __init__(self, p, v, unit, known=None):
        self.p, self.v, self.unit, self.known = p, v, unit, known

    @classmethod
    def of(cls, p, value, k):
        value = Fraction(value)
        if value == 0:
            return cls(p, None, None)
        vn = oracle_valuation(value.numerator, p)
        vd = oracle_valuation(value.denominator, p)
        q = p**k
        u = (value.numerator // p**vn) * pow(value.denominator // p**vd, -1, q) % q
        return cls(p, vn - vd, PadicInt(p, u, k))

    @classmethod
    def from_unit(cls, p, v, unit):
        if unit.residue == 0:
            return cls(p, None, None, v + unit.precision)
        s = unit.valuation()
        if s:
            unit, v = PadicInt(p, unit.residue // p**s, unit.precision - s), v + s
        return cls(p, v, unit)

    def key(self):
        if self.unit is None:
            return (None, None, None, self.known)
        return (self.v, self.unit.residue, self.unit.precision, None)

    def abs_precision(self):
        if self.unit is not None:
            return self.v + self.unit.precision
        return math.inf if self.known is None else self.known

    def coerce_precision(self):
        return DEFAULT_PRECISION if self.unit is None else self.unit.precision

    def coerce(self, other):
        if isinstance(other, NestedNumber):
            return other
        return NestedNumber.of(self.p, other, self.coerce_precision())

    def __add__(self, other):
        a, b, p = self, self.coerce(other), self.p
        if a.unit is None or b.unit is None:
            if a.unit is None and b.unit is None:
                if a.known is None:
                    return b
                if b.known is None:
                    return a
                return NestedNumber(p, None, None, min(a.known, b.known))
            zero, val = (a, b) if a.unit is None else (b, a)
            if zero.known is None:
                return val
            cap = min(zero.known, val.abs_precision())
            if val.v >= cap:
                return NestedNumber(p, None, None, cap)
            return NestedNumber(p, val.v, PadicInt(p, val.unit.residue, cap - val.v))
        w = min(a.v, b.v)
        m = min(a.abs_precision(), b.abs_precision()) - w
        s = a.unit.residue * p ** (a.v - w) + b.unit.residue * p ** (b.v - w)
        return NestedNumber.from_unit(p, w, PadicInt(p, s, m))

    def __neg__(self):
        return self if self.unit is None else NestedNumber(self.p, self.v, -self.unit)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __mul__(self, other):
        a, b, p = self, self.coerce(other), self.p
        if a.unit is None or b.unit is None:
            if (a.unit is None and a.known is None) or (b.unit is None and b.known is None):
                return NestedNumber(p, None, None)
            bound = sum(z.known if z.unit is None else z.v for z in (a, b))
            return NestedNumber(p, None, None, bound)
        k = min(a.unit.precision, b.unit.precision)
        return NestedNumber(p, a.v + b.v, PadicInt(p, a.unit.residue * b.unit.residue, k))

    def __truediv__(self, other):
        a, b, p = self, self.coerce(other), self.p
        if b.unit is None:
            raise ZeroDivisionError
        if a.unit is None:
            return a if a.known is None else NestedNumber(p, None, None, a.known - b.v)
        return NestedNumber(p, a.v - b.v, a.unit / b.unit)

    def __pow__(self, n):
        p = self.p
        if n == 0:
            return NestedNumber.of(p, 1, self.coerce_precision())
        if self.unit is None:
            if n < 0:
                raise ZeroDivisionError
            return self if self.known is None else NestedNumber(p, None, None, self.known * n)
        base = self if n > 0 else NestedNumber.of(p, 1, self.unit.precision) / self
        return NestedNumber.from_unit(p, base.v * abs(n), base.unit ** abs(n))

    def __eq__(self, other):
        if self.unit is None or other.unit is None:
            return self.unit is None and other.unit is None
        return self.v == other.v and self.unit.congruent(other.unit)


def flat_key(x):
    # the stored residue, not x.unit.residue: the PadicInt view would reduce
    # a residue that an operation left outside [0, p^K)
    return (x.valuation, x._u, x.relative_precision, x.zero_known_to)


def chain_value(data, p):
    num = data.draw(st.integers(-10**6, 10**6))
    den = data.draw(st.integers(1, 200))
    return Fraction(num, den) * Fraction(p) ** data.draw(st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_flat_arithmetic_matches_nested_reference(data, p):
    k0 = data.draw(st.integers(1, 20))
    a0 = chain_value(data, p)
    x, rx = PadicNumber(p, a0, k0), NestedNumber.of(p, a0, k0)
    history = [(x, rx)]
    for _ in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(["add", "sub", "mul", "div", "pow", "neg"]))
        if op == "neg":
            x, rx = -x, -rx
        elif op == "pow":
            n = data.draw(st.integers(-2, 2))
            try:
                x, rx = x**n, rx**n
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    rx**n
                break
        else:
            kind = data.draw(st.sampled_from(["fresh", "zero", "near", "history", "int"]))
            k = data.draw(st.integers(1, 20))
            if kind == "history":
                y, ry = data.draw(st.sampled_from(history))
            elif kind == "int":
                y = ry = data.draw(st.integers(-50, 50))
            else:
                if kind == "fresh":
                    value = chain_value(data, p)
                elif kind == "zero" or x.is_zero:
                    value = 0
                else:
                    # the current value plus p^(v+j) c cancels about j digits
                    value = (Fraction(x.unit.residue) * Fraction(p) ** x.valuation
                             + data.draw(st.integers(1, 50)) * Fraction(p) ** (
                                 x.valuation + data.draw(st.integers(0, 22))))
                    if op == "add":
                        value = -value
                y, ry = PadicNumber(p, value, k), NestedNumber.of(p, value, k)
            fn = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                  "div": operator.truediv}[op]
            try:
                x, rx = fn(x, y), fn(rx, ry)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    fn(rx, ry)
                break
        assert flat_key(x) == rx.key()
        x0, rx0 = history[0]
        assert (x == x0) == (rx == rx0)
        history.append((x, rx))


def test_number_arithmetic_builds_no_padic_int(monkeypatch):
    p = 7
    exp, sin = elementary("exp", p, 12), elementary("sin", p, 12)
    V = MultiPoly(p, 2, {(3, 0): 1, (0, 3): 1, (1, 1): 2})
    H = HamiltonianSpec(p, [1, 1], V)
    z0 = PhaseState(p, [2, 3], [1, 4])
    point = PadicNumber(p, 14)

    def run():
        flow = taylor_integrate(H, z0, 8)
        return [exp.compose(sin), evaluate(exp, point, with_tail=True),
                *flow.q, *flow.p, *plane_wave_fields(p, 3, 1, degree=10)]

    want = run()

    def refuse(self, *args, **kwargs):
        raise AssertionError("PadicInt built")

    monkeypatch.setattr(PadicInt, "__init__", refuse)
    got = run()
    monkeypatch.undo()  # the literals below print each unit through a PadicInt
    assert [str(g) for g in got] == [str(w) for w in want]
