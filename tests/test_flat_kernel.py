"""The flat integer kernel against the PadicNumber loops it replaced.

The references below are the object loops the kernel replaced: a truncated
product that adds one PadicNumber product at a time, Horner composition over
it, the term-by-term MultiPoly product and `compose_series` over that.  The
kernel must reproduce them coefficient for coefficient: valuation, stored
residue, relative precision and the depth of every inexact zero, plus the
radius, `geometric` flag and floor of a series and the term keys and `valid`
of a polynomial.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmech.core import DomainViolation, PadicNumber, radius_exponent
from padicmech.multi import MultiPoly, compose_series
from padicmech.quantum import plane_wave_fields
from padicmech.series import PowerSeries, elementary, evaluate, factorial_floor


# --- the references: one PadicNumber per coefficient pair ----------------------------

def ref_trunc_mul(f, g, d, p):
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


def ref_compose(outer, inner):
    if not inner.coeffs[0].is_zero and outer.radius is not None:
        raise DomainViolation("needs a zero constant term", reason="series-radius")
    orders = [j for j, c in enumerate(inner.coeffs) if j > 0 and not c.is_zero]
    if not orders:
        if outer.radius is None:
            return PowerSeries(outer.prime, [evaluate(outer, inner.coeffs[0])])
        return PowerSeries(outer.prime, [outer.coeffs[0]])
    og = orders[0]
    if inner.radius is None:
        d = outer.degree * inner.degree if outer.radius is None else (outer.degree + 1) * og - 1
    else:
        d = inner.degree if outer.radius is None else min(outer.degree, inner.degree)
    acc = [outer.coeffs[outer.degree]] + [PadicNumber.zero(outer.prime)] * d
    for n in range(outer.degree - 1, -1, -1):
        acc = ref_trunc_mul(acc, inner.coeffs, d, outer.prime)
        acc[0] = acc[0] + outer.coeffs[n]
    radius, geo, floor = outer._composed_domain(inner, orders)
    return PowerSeries(outer.prime, acc, radius, geo, floor)


def ref_capped_mul(a, b, valid):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            if valid is not None and sum(expo) > valid:
                continue
            c = ca * cb
            out[expo] = out[expo] + c if expo in out else c
    return out


def ref_mul(a, b):
    valid = b.valid if a.valid is None else a.valid if b.valid is None else min(a.valid, b.valid)
    return MultiPoly(a.prime, a.nvars, ref_capped_mul(a, b, valid), valid)


def ref_compose_series(outer, inner):
    og = inner.min_order()
    if outer.radius is not None:
        if not inner.constant_term().is_exact_zero:
            raise DomainViolation("needs a zero constant term", reason="series-radius")
        r_out = radius_exponent(outer.radius, outer.prime)
        for c in inner.terms.values():
            if (c.zero_known_to if c.is_zero else c.valuation) < r_out:
                raise DomainViolation("coefficient above the radius", reason="series-radius")
        valid = (outer.degree + 1) * max(og, 1) - 1
    else:
        valid = None if inner.valid is None else outer.degree * inner.valid
    if inner.valid is not None:
        valid = inner.valid if valid is None else min(valid, inner.valid)
    acc = MultiPoly.constant(outer.prime, inner.nvars, outer.coeffs[outer.degree])
    for n in range(outer.degree - 1, -1, -1):
        acc = (MultiPoly(outer.prime, inner.nvars, ref_capped_mul(acc, inner, valid))
               + outer.coeffs[n])
    return MultiPoly(outer.prime, inner.nvars, acc.terms, valid)


# --- comparisons -----------------------------------------------------------------------

def digits(c):
    """Everything a coefficient carries, the residue as stored."""
    return (c.valuation, c._u, c.relative_precision, c.zero_known_to, c.is_exact_zero)


def assert_same_series(got, want):
    assert [digits(c) for c in got.coeffs] == [digits(c) for c in want.coeffs]
    assert (got.radius, got.geometric, got.floor) == (want.radius, want.geometric, want.floor)


def assert_same_poly(got, want):
    assert got.valid == want.valid
    assert set(got.terms) == set(want.terms)
    assert {e: digits(c) for e, c in got.terms.items()} == \
        {e: digits(c) for e, c in want.terms.items()}


def same_outcome(fn, ref, check):
    """Both raise the same DomainViolation reason, or both agree under check."""
    try:
        want = ref()
    except DomainViolation as exc:
        with pytest.raises(DomainViolation) as got:
            fn()
        assert got.value.reason == exc.reason
        return
    check(fn(), want)


# --- random coefficients -----------------------------------------------------------------

PRIMES = st.sampled_from([2, 3, 5, 7, 11])


@st.composite
def coefficient(draw, p, low=-3):
    """A unit times p^v (v >= low) at 1..20 digits, an exact zero, an inexact
    zero, or the near-cancelling difference of two such values."""
    kind = draw(st.sampled_from(["unit", "unit", "unit", "exact", "inexact", "cancel"]))
    if kind == "exact":
        return PadicNumber.zero(p)
    if kind == "inexact":
        return PadicNumber.zero(p, draw(st.integers(max(low, 0), 20)))
    u = draw(st.integers(1, p**6).filter(lambda u: u % p))
    value = u * Fraction(p) ** draw(st.integers(low, 4))
    x = PadicNumber(p, value, draw(st.integers(1, 20)))
    if kind == "unit":
        return x
    near = value + draw(st.integers(1, p - 1 if p > 2 else 1)) * Fraction(p) ** draw(
        st.integers(low, 25))
    return x - PadicNumber(p, near, draw(st.integers(1, 20)))


def coefficient_list(p, max_size=9, low=-3):
    return st.lists(coefficient(p, low), min_size=1, max_size=max_size)


# --- univariate ------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=PRIMES, truncated=st.booleans())
def test_truncated_product_matches_the_object_loop(data, p, truncated):
    # two truncations meet at the shorter degree; polynomials multiply in full
    radius = Fraction(1) if truncated else None
    f = PowerSeries(p, data.draw(coefficient_list(p)), radius=radius)
    g = PowerSeries(p, data.draw(coefficient_list(p)), radius=radius)
    d = min(f.degree, g.degree) if truncated else f.degree + g.degree
    want = ref_trunc_mul(f.coeffs, g.coeffs, d, p)
    assert [digits(c) for c in (f * g).coeffs] == [digits(c) for c in want]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=PRIMES)
def test_horner_compose_matches_the_object_loop(data, p):
    limited = data.draw(st.booleans())
    radius = Fraction(p) ** -data.draw(st.integers(0, 2)) if limited else None
    outer = PowerSeries(p, data.draw(coefficient_list(p)), radius=radius,
                        geometric=data.draw(st.booleans()),
                        floor=data.draw(st.sampled_from([None, factorial_floor(p)])))
    inner_coeffs = data.draw(coefficient_list(p, low=0))
    if data.draw(st.booleans()):
        inner_coeffs[0] = PadicNumber.zero(p)
    inner_radius = data.draw(st.sampled_from([None, Fraction(1, p)]))
    inner = PowerSeries(p, inner_coeffs, radius=inner_radius)
    same_outcome(lambda: outer.compose(inner), lambda: ref_compose(outer, inner),
                 assert_same_series)


def test_elementary_compositions_match_the_object_loop():
    for p, d, k in ((7, 12, 12), (3, 9, 5), (2, 8, 7), (11, 6, 20)):
        for kind in ("exp", "sin", "cos"):
            outer, inner = elementary(kind, p, d, k), elementary("sin", p, d, 4)
            assert_same_series(outer.compose(inner), ref_compose(outer, inner))
            assert_same_series(outer * inner, PowerSeries(
                p, ref_trunc_mul(outer.coeffs, inner.coeffs, d, p), outer.radius,
                True, outer.floor.times(inner.floor, d)))


# --- multivariate ----------------------------------------------------------------------

@st.composite
def multipoly(draw, p, nvars, low=-3, zero_constant=False):
    expos = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple),
        max_size=6, unique=True))
    terms = {e: draw(coefficient(p, low)) for e in expos
             if not (zero_constant and not any(e))}
    valid = draw(st.one_of(st.none(), st.integers(0, 6)))
    return MultiPoly(p, nvars, terms, valid)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=PRIMES, nvars=st.integers(1, 3))
def test_multipoly_product_matches_the_object_loop(data, p, nvars):
    a, b = data.draw(multipoly(p, nvars)), data.draw(multipoly(p, nvars))
    assert_same_poly(a * b, ref_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=PRIMES, nvars=st.integers(1, 3))
def test_compose_series_matches_the_object_loop(data, p, nvars):
    limited = data.draw(st.booleans())
    outer = PowerSeries(p, data.draw(coefficient_list(p, max_size=7)),
                        radius=Fraction(1, p) if limited else None)
    inner = data.draw(multipoly(p, nvars, low=1 if limited else -3,
                                zero_constant=limited and data.draw(st.booleans())))
    same_outcome(lambda: compose_series(outer, inner), lambda: ref_compose_series(outer, inner),
                 assert_same_poly)


@pytest.mark.parametrize("p, momentum, energy, degree, precision", [
    (7, 3, 1, 12, 12), (3, Fraction(2, 5), Fraction(-7, 4), 10, 6), (11, 5, 9, 8, 20),
])
def test_wave_fields_match_the_object_loop(p, momentum, energy, degree, precision):
    cos_part, sin_part = plane_wave_fields(p, momentum, energy, degree=degree,
                                           precision=precision)
    inv_h = PadicNumber.of(p, p, precision)
    theta = MultiPoly(p, 2, {(1, 0): -PadicNumber.of(energy, p, precision) * inv_h,
                             (0, 1): PadicNumber.of(momentum, p, precision) * inv_h})
    for kind, got in (("cos", cos_part), ("sin", sin_part)):
        assert_same_poly(got, ref_compose_series(elementary(kind, p, degree, precision), theta))
