"""Series layer: exact-rational partial sums are the oracle for every
derived residue; the library's p-adic evaluation must land on the same digits.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicmech.core import DomainViolation, PadicInt, PadicNumber, metric, within
from padicmech.series import (
    PowerSeries,
    definite_integral,
    digit_dilate,
    elementary,
    evaluate,
    factorial_valuation,
    integral_domain_bound,
    parse_series,
    series_combine,
    sup_norm_probe,
)


# --- oracles ----------------------------------------------------------------

def rational_to_residue(q: Fraction, p: int, k: int) -> int:
    """Exact rational -> residue mod p^k (denominator must be a unit)."""
    assert q.denominator % p != 0
    return q.numerator * pow(q.denominator, -1, p**k) % p**k


def exp_partial_sum(x: Fraction, terms: int) -> Fraction:
    return sum(x**n / Fraction(math.factorial(n)) for n in range(terms))


def sin_partial_sum(x: Fraction, terms: int) -> Fraction:
    return sum((-1) ** k * x ** (2 * k + 1) / Fraction(math.factorial(2 * k + 1))
               for k in range(terms))


# --- combine -----------------------------------------------------------------

def test_combine_examples():
    p = 5
    x_sq = PowerSeries.polynomial(p, [0, 0, 1])
    d = series_combine("derive", x_sq)
    assert d == PowerSeries.polynomial(p, [0, 2])
    f = PowerSeries.polynomial(p, [1, 1])
    g = PowerSeries.polynomial(p, [1, -1])
    assert series_combine("mul", f, g) == PowerSeries.polynomial(p, [1, 0, -1])
    zero = PowerSeries.polynomial(p, [0])
    const = series_combine("compose", elementary("exp", p, 8), zero)
    assert const.degree == 0 and const.coeffs[0] == PadicNumber(p, 1)


def test_combine_truncation_is_min_for_truncated_series():
    p = 3
    r = Fraction(1, 3)
    f = PowerSeries(p, [1] * 9, radius=r)   # truncation, unknown tail
    g = PowerSeries(p, [1] * 5, radius=r)
    assert (f + g).degree == 4
    assert (f * g).degree == 4


def test_polynomials_never_truncate():
    p = 3
    f = PowerSeries.polynomial(p, [1] * 9)
    g = PowerSeries.polynomial(p, [1, 1])
    assert (f + g).degree == 8
    assert (f * g).degree == 9
    # polynomial factor of order 1 extends a truncated series by one place
    trunc = PowerSeries(p, [1] * 5, radius=Fraction(1, 3))
    t = PowerSeries.polynomial(p, [0, 1])
    assert (trunc * t).degree == 5
    assert (trunc + g).degree == 4


def test_compose_rejects_nonzero_constant_into_radius_limited():
    p = 5
    shifted = PowerSeries.polynomial(p, [1, 1])
    with pytest.raises(DomainViolation):
        elementary("exp", p, 6).compose(shifted)


def test_compose_linear_monomial_rescales_radius():
    p = 5
    scaled = elementary("exp", p, 10).compose(PowerSeries.polynomial(p, [0, p]))
    # exp(p*t): coefficient of t^n is p^n/n!
    for n in range(11):
        assert scaled.coeffs[n] == PadicNumber(p, Fraction(p**n, math.factorial(n)))
    assert scaled.radius == 1  # |p*t| <= 1/p iff |t| <= 1
    assert scaled.geometric


# --- elementary ----------------------------------------------------------------

def test_exp_at_zero_is_one():
    p = 5
    assert evaluate(elementary("exp", p), PadicNumber.zero(p)) == PadicNumber(p, 1)


def test_sin_norm_equals_argument_norm():
    val = evaluate(elementary("sin", 5), PadicNumber(5, 5))
    assert val.norm() == Fraction(1, 5)


def test_exp_of_p_matches_series_oracle_mod_p3():
    # Oracle first: exact partial sum, then reduced mod 5^3.
    s = exp_partial_sum(Fraction(5), 12)
    expected = rational_to_residue(s, 5, 3)
    inv2 = pow(2, -1, 125)
    assert expected == (1 + 5 + 25 * inv2) % 125
    got = evaluate(elementary("exp", 5), PadicNumber(5, 5))
    assert got.residue(3) == expected


def test_radii():
    assert elementary("exp", 5).radius == Fraction(1, 5)
    assert elementary("cos", 2).radius == Fraction(1, 4)
    with pytest.raises(ValueError):
        elementary("tan", 5)


# --- evaluate -------------------------------------------------------------------

def test_evaluate_outside_radius_raises():
    with pytest.raises(DomainViolation) as err:
        evaluate(elementary("exp", 5), PadicNumber(5, 1))
    assert err.value.reason == "series-radius"


def test_evaluate_polynomial_anywhere():
    p = 5
    f = PowerSeries.polynomial(p, [1, 0, 1])  # x^2 + 1
    val = evaluate(f, PadicNumber(p, 2))
    assert val == PadicNumber(p, 5)
    assert val.unit.digits[:2] == (1, 0) and val.valuation == 1


def test_exp_functional_equation_at_points():
    p = 5
    x = y = Fraction(5)
    oracle_lhs = rational_to_residue(exp_partial_sum(x + y, 16), p, 4)
    oracle_rhs = rational_to_residue(exp_partial_sum(x, 16) * exp_partial_sum(y, 16), p, 4)
    assert oracle_lhs == oracle_rhs
    e = elementary("exp", p)
    lhs = evaluate(e, PadicNumber(p, x + y))
    rhs = evaluate(e, PadicNumber(p, x)) * evaluate(e, PadicNumber(p, y))
    assert lhs.residue(4) == oracle_lhs
    assert rhs.residue(4) == oracle_rhs


def test_evaluate_reports_tail_bound():
    p = 5
    val, tail = evaluate(elementary("exp", p, 10), PadicNumber(p, 5), with_tail=True)
    # first omitted term is 5^11/11!, valuation 11 - v_5(11!) = 11 - 2
    assert tail == 11 - factorial_valuation(11, p)
    poly_val, poly_tail = evaluate(PowerSeries.polynomial(p, [1, 2]), 3, with_tail=True)
    assert poly_tail >= 10**6  # nothing omitted


def test_exact_polynomial_keeps_the_tail_certificate():
    # a polynomial's coefficients past its degree are exact zeros, so mixing
    # one into a sum or product must not turn the tail into "unknown"
    p = 5
    e = elementary("exp", p, 8)
    poly = PowerSeries.polynomial(p, [1, 1])
    _, alone = evaluate(e, p, with_tail=True)
    assert alone == 8
    for mixed in (poly * e, e * poly, poly + e, e + poly):
        assert evaluate(mixed, p, with_tail=True)[1] == alone


def test_series_identity_exp_double_angle():
    # exp(2t) == exp(t)^2 coefficient-wise mod tracked precision
    p = 7
    d = 12
    e = elementary("exp", p, d)
    lhs = e.compose(PowerSeries.polynomial(p, [0, 2]))
    rhs = e * e
    diff = lhs - rhs
    assert all(c.is_zero for c in diff.coeffs)


def test_series_identity_pythagorean():
    p = 7
    d = 16
    s, c = elementary("sin", p, d), elementary("cos", p, d)
    one = PowerSeries.polynomial(p, [1])
    diff = s * s + c * c - one
    assert all(x.is_zero for x in diff.coeffs)


@given(a=st.integers(1, 500), p=st.sampled_from([3, 5, 7, 11]))
def test_sin_preserves_norm_and_cos_stays_close_to_one(a, p):
    x = PadicNumber(p, a * p)  # |x| <= 1/p
    s = evaluate(elementary("sin", p), x)
    c = evaluate(elementary("cos", p), x)
    assert s.norm() == x.norm()
    assert (c - PadicNumber(p, 1)).norm() <= x.norm() ** 2


# --- integration -----------------------------------------------------------------

def test_integral_examples():
    p = 5
    one = PowerSeries.polynomial(p, [1])
    t = PadicNumber(p, 17)
    assert definite_integral(one, 0, t) == t
    ident = PowerSeries.polynomial(p, [0, 1])
    b = PadicNumber(p, 6)
    assert definite_integral(ident, 0, b) == PadicNumber(p, Fraction(36, 2))


def test_integral_of_exp_matches_oracle():
    # integral of exp from 0 to 5 is e^5 - 1; oracle = exact partial sums
    p = 5
    oracle = rational_to_residue(exp_partial_sum(Fraction(5), 14) - 1, p, 3)
    got = definite_integral(elementary("exp", p), 0, PadicNumber(p, 5))
    assert got.residue(3) == oracle


def test_integral_orientation_is_forward():
    p = 5
    one = PowerSeries.polynomial(p, [1])
    assert definite_integral(one, 0, PadicNumber(p, 3)) == PadicNumber(p, 3)
    assert definite_integral(one, PadicNumber(p, 3), 0) == PadicNumber(p, -3)


def test_certified_series_integrate_on_full_disc_others_shrink():
    p = 5
    e = elementary("exp", p)
    assert integral_domain_bound(e) == Fraction(1, 5)
    raw = PowerSeries(p, list(e.coeffs), radius=Fraction(1, 5))
    assert not raw.geometric
    assert integral_domain_bound(raw) == Fraction(1, 25)
    with pytest.raises(DomainViolation) as err:
        definite_integral(raw, 0, PadicNumber(p, 5))
    assert err.value.reason == "integral-domain"


def test_equal_bounds_integrate_to_exact_zero():
    p = 7
    w = definite_integral(elementary("exp", p), PadicNumber(p, 7), PadicNumber(p, 7))
    assert w.is_exact_zero


@given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       p=st.sampled_from([3, 5, 7]))
def test_derive_of_antiderivative_restores(coeffs, p):
    f = PowerSeries.polynomial(p, coeffs)
    back = f.antiderivative().derive()
    assert back == f


def test_antiderivative_division_loss_is_tracked():
    # coefficient at degree p-1 is divided by p: one digit of certified
    # absolute precision must disappear.
    p = 5
    k = 6
    f = PowerSeries(p, [1] * 5, precision=k)
    F = f.antiderivative()
    assert F.coeffs[5].valuation == -1
    assert F.coeffs[5].abs_precision == k - 1


# --- pathology --------------------------------------------------------------------

def test_digit_dilate_examples():
    p = 5
    z = digit_dilate(PadicInt(p, 0, 4))
    assert z.residue == 0 and z.precision == 8
    assert digit_dilate(PadicInt(p, p, 4)).residue == p**2
    x = PadicInt.from_digits(p, (3, 1, 4))
    assert digit_dilate(x).digits == (3, 0, 1, 0, 4, 0)


@given(a=st.integers(0, 5**6 - 1), b=st.integers(0, 5**6 - 1))
def test_digit_dilate_squares_distances(a, b):
    p = 5
    x, y = PadicInt(p, a, 6), PadicInt(p, b, 6)
    assert metric(digit_dilate(x), digit_dilate(y)) == metric(x, y) ** 2


def test_digit_dilate_is_injective_on_residues():
    p = 3
    images = {digit_dilate(PadicInt(p, c, 3)).residue for c in range(27)}
    assert len(images) == 27


# --- sup-norm probe ------------------------------------------------------------------

def test_sup_norm_probe_fermat_polynomial():
    # Oracle first: exhaustive exact evaluation over 9 residues.
    p = 3
    vals = [pow(c, p) - c for c in range(9)]
    oracle = max(
        (Fraction(1, p ** _trial_valuation(v, p)) for v in vals if v % 9 != 0),
        default=Fraction(0))
    assert oracle == Fraction(1, 3)
    f = PowerSeries.polynomial(p, [0, -1, 0, 1])
    report = sup_norm_probe(f, depth=2)
    assert report.value == oracle
    assert report.certified


def _trial_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_sup_norm_probe_trivial_cases():
    p = 5
    assert sup_norm_probe(PowerSeries.polynomial(p, [1]), 1).value == 1
    report = sup_norm_probe(PowerSeries.polynomial(p, [0, p]), 1)
    assert report.value == Fraction(1, 5)
    assert report.upper_bound == Fraction(1, 5)


def test_sup_norm_probe_uncertified_when_everything_collapses():
    p = 5
    f = PowerSeries.polynomial(p, [p**3])
    report = sup_norm_probe(f, 1)
    assert report.value == Fraction(1, 125)
    assert report.upper_bound == Fraction(1, 5)
    assert not report.certified


def test_fermat_claim_at_depths():
    for p in (3, 5):
        coeffs = [0, -1] + [0] * (p - 2) + [1]
        f = PowerSeries.polynomial(p, coeffs)
        for depth in (1, 2, 3):
            if p**depth <= 10**6:
                assert sup_norm_probe(f, depth).upper_bound <= Fraction(1, p)


def test_probe_guards():
    p = 11
    f = PowerSeries.polynomial(p, [0, 1])
    with pytest.raises(ValueError):
        sup_norm_probe(f, 7)  # 11^7 > 10^6
    with pytest.raises(ValueError):
        sup_norm_probe(elementary("exp", p), 1)


# --- text form ---------------------------------------------------------------------

def test_series_text_roundtrip():
    p = 5
    f = PowerSeries.polynomial(p, [1, 0, Fraction(2, 3)], precision=6)
    g = parse_series(str(f))
    assert g == f
    with pytest.raises(ValueError):
        parse_series("5:2:[v=0 5:1:0]")
