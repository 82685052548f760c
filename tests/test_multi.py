"""Multivariate layer: evaluation homomorphism against exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicmech.core import DomainViolation, PadicNumber
from padicmech.multi import MultiPoly, compose_series
from padicmech.series import PowerSeries, elementary, evaluate


def test_construction_and_cleanup():
    p = 5
    f = MultiPoly(p, 2, {(1, 0): 3, (0, 1): 0})
    assert len(f.terms) == 1
    assert f.total_degree == 1
    with pytest.raises(ValueError):
        MultiPoly(p, 2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly.variable(p, 2, 5)


def test_partial_derivative():
    p = 5
    x = MultiPoly.variable(p, 2, 0)
    y = MultiPoly.variable(p, 2, 1)
    f = x * x * y  # x^2 y
    assert f.partial(0) == x * y * 2
    assert f.partial(1) == x * x
    assert f.partial(0).partial(1) == x * 2


def test_hash_agrees_with_eq_on_inexact_zero_terms():
    p = 5
    zero = PadicNumber(p, 1) - PadicNumber(p, 1)  # inexact, known to 5^12
    f, g = MultiPoly(p, 2, {(1, 0): zero}), MultiPoly(p, 2, {})
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    h = MultiPoly(p, 2, {(1, 0): zero, (0, 1): 3})
    assert h == MultiPoly(p, 2, {(0, 1): 3}) and hash(h) == hash(MultiPoly(p, 2, {(0, 1): 3}))


@given(st.data())
def test_arithmetic_matches_pointwise_oracle(data):
    p = 7
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = st.dictionaries(exps, st.integers(-20, 20), max_size=5)
    f = MultiPoly(p, 2, data.draw(terms))
    g = MultiPoly(p, 2, data.draw(terms))
    pt = [data.draw(st.integers(-50, 50)) for _ in range(2)]
    lhs = (f * g + f - g).evaluate(pt)
    rhs = f.evaluate(pt) * g.evaluate(pt) + f.evaluate(pt) - g.evaluate(pt)
    assert lhs == rhs


def test_substitute_commutes_with_evaluation():
    p = 5
    x = MultiPoly.variable(p, 2, 0)
    y = MultiPoly.variable(p, 2, 1)
    f = x * x + y * 3 + 1
    s1 = PowerSeries.polynomial(p, [1, 2])       # 1 + 2t
    s2 = PowerSeries.polynomial(p, [0, 0, 1])    # t^2
    composed = f.substitute([s1, s2])
    for t in (0, 1, 7, -3):
        tv = PadicNumber(p, t)
        direct = f.evaluate([evaluate(s1, tv), evaluate(s2, tv)])
        assert evaluate(composed, tv) == direct


def test_substitute_multi_chain():
    p = 5
    # F(q1, q2) = q1 + q2 composed with chart q1 = xi, q2 = xi^2
    F = MultiPoly.variable(p, 2, 0) + MultiPoly.variable(p, 2, 1)
    xi = MultiPoly.variable(p, 1, 0)
    assert F.substitute_multi([xi, xi * xi]) == xi + xi * xi


def test_compose_series_into_scaled_argument():
    p = 5
    # cos(p*(x - t)): inner coefficients are divisible by p, so the
    # substitution is defined on all of Z_p^2
    inner = (MultiPoly.variable(p, 2, 1) - MultiPoly.variable(p, 2, 0)).scale(p)
    c = compose_series(elementary("cos", p, 8), inner)
    assert c.constant_term() == PadicNumber(p, 1)
    assert c.valid == 8
    # total degree 2 coefficient of cos(u) with u = p(x-t): -u^2/2 part
    assert c.terms[(0, 2)] == PadicNumber(p, Fraction(-(p**2), 2))
    assert c.terms[(1, 1)] == PadicNumber(p, Fraction(p**2, 1))


def test_compose_series_rejects_unit_coefficients():
    p = 5
    inner = MultiPoly.variable(p, 2, 0)  # coefficient 1: norm 1 > 1/5
    with pytest.raises(DomainViolation):
        compose_series(elementary("cos", p, 6), inner)
    shifted = MultiPoly.variable(p, 2, 0).scale(p) + 1
    with pytest.raises(DomainViolation):
        compose_series(elementary("exp", p, 6), shifted)


def test_compose_series_polynomial_outer_is_exact():
    p = 5
    outer = PowerSeries.polynomial(p, [1, 0, 1])  # u^2 + 1
    inner = MultiPoly.variable(p, 2, 0) + MultiPoly.variable(p, 2, 1)
    out = compose_series(outer, inner)
    assert out.valid is None
    assert out == inner * inner + 1
