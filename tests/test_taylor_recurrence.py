"""The Taylor-mode recurrence in taylor_integrate against the full substitution.

The reference below is the solver the recurrence replaced: at every step k it
substitutes the q polynomials known so far into the whole gradient and reads
off coefficient k.  The recurrence must reproduce it coefficient for
coefficient, including each coefficient's tracked precision and the depth of
every inexact zero, plus the window and the tail certificate.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmech.core import DEFAULT_PRECISION, PadicNumber
from padicmech.mechanics import (
    HamiltonianSpec,
    PhaseState,
    TrajectorySeries,
    taylor_integrate,
)
from padicmech.multi import MultiPoly
from padicmech.series import PowerSeries, convergence_radius, factorial_floor


# --- the reference: substitute the gradient at every step ------------------------

def reference_integrate(H, z0, degree, validity=None, precision=DEFAULT_PRECISION):
    prime, n = H.prime, H.n
    two = PadicNumber.of(2, prime, precision)
    qc = [[PadicNumber.of(z0.q[j], prime)] for j in range(n)]
    pc = [[PadicNumber.of(z0.p[j], prime)] for j in range(n)]
    grads = [H.potential.partial(j) for j in range(n)]
    for k in range(degree):
        inv = PadicNumber.of(Fraction(1, k + 1), prime, precision)
        qpolys = [PowerSeries.polynomial(prime, qc[j]) for j in range(n)]
        for j in range(n):
            g = grads[j].substitute(qpolys)
            gk = g.coeffs[k] if k <= g.degree else PadicNumber.zero(prime)
            pc[j].append(-gk * inv)
            qc[j].append(two * H.alphas[j] * pc[j][k] * inv)
    zp_data = (all(a.norm_bound() <= 1 for a in H.alphas)
               and all(c.norm_bound() <= 1 for c in H.potential.terms.values()))
    window = convergence_radius(prime)
    if validity is None:
        if not zp_data:
            raise ValueError("data outside Z_p: pass an explicit validity window")
        validity = window
    validity = Fraction(validity)
    geometric = zp_data and validity <= window
    floor = factorial_floor(prime) if geometric else None
    qs = [PowerSeries(prime, qc[j], radius=validity, geometric=geometric,
                      floor=floor) for j in range(n)]
    ps = [PowerSeries(prime, pc[j], radius=validity, geometric=geometric,
                      floor=floor) for j in range(n)]
    return TrajectorySeries(prime, qs, ps, validity)


def digits(c):
    """Everything a coefficient carries: valuation, unit residue, relative
    precision and the depth of an inexact zero."""
    return (c.valuation, None if c.unit is None else c.unit.residue,
            c.relative_precision, c.zero_known_to)


def assert_same_flow(got, want):
    assert got.validity == want.validity
    for a, b in zip(got.q + got.p, want.q + want.p):
        assert [digits(c) for c in a.coeffs] == [digits(c) for c in b.coeffs]
        assert (a.radius, a.geometric, a.floor) == (b.radius, b.geometric, b.floor)


# --- random potentials -------------------------------------------------------------

def coefficient(data, p, zp):
    u = data.draw(st.integers(1, 60).filter(lambda k: k % p))
    sign = data.draw(st.sampled_from([1, -1]))
    shift = data.draw(st.integers(0, 2) if zp else st.integers(-2, 2))
    return sign * Fraction(u) * Fraction(p) ** shift


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11]),
       nvars=st.integers(1, 3), degree=st.integers(1, 7))
def test_recurrence_matches_the_substitution(data, p, nvars, degree):
    # potential, masses, state and solver each at their own precision, so a
    # regrouped product would show up as a different tracked precision
    kv, ka, kz, ks = (data.draw(st.integers(4, 20)) for _ in range(4))
    zp = data.draw(st.booleans())
    expos = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)
        .filter(lambda e: sum(e) <= 4).map(tuple),
        min_size=0, max_size=5, unique=True))
    V = MultiPoly(p, nvars, {e: coefficient(data, p, zp) for e in expos}, precision=kv)
    H = HamiltonianSpec(p, [coefficient(data, p, zp) for _ in range(nvars)], V,
                        precision=ka)
    coord = st.one_of(st.just(0), st.integers(0, p**3))
    z0 = PhaseState(p, [data.draw(coord) for _ in range(nvars)],
                    [data.draw(coord) for _ in range(nvars)], precision=kz)
    validity = data.draw(st.sampled_from([Fraction(p) ** -r for r in range(4)]
                                         + ([None] if zp else [])))
    got = taylor_integrate(H, z0, degree, validity=validity, precision=ks)
    assert_same_flow(got, reference_integrate(H, z0, degree, validity, ks))


def test_gradient_cancelling_at_the_start_keeps_its_inexact_zero():
    # V = a q1^2 + b q1 q2 at q1 = b, q2 = -2a: dV/dq1 = 2ab - 2ab is an
    # inexact zero, O(p^12).  alpha_1 = p^-2 carries it into q1's next
    # coefficient as O(p^10), which then caps the gradient's coefficient 2
    # below the other summand's 12 digits; skipping it as if exact would not
    p, a, b = 5, 3, 7
    V = MultiPoly(p, 2, {(2, 0): a, (1, 1): b})
    H = HamiltonianSpec(p, [Fraction(1, p**2), 1], V)
    z0 = PhaseState(p, [b, -2 * a], [1, 2])
    got = taylor_integrate(H, z0, 4, validity=Fraction(1, p**3))
    cancelled = got.p[0].coeffs[1]
    assert cancelled.is_zero and not cancelled.is_exact_zero
    assert got.p[0].coeffs[3].abs_precision == 10
    assert_same_flow(got, reference_integrate(H, z0, 4, Fraction(1, p**3)))


@pytest.mark.parametrize("p, terms, alphas, precisions, q0, p0, degree", [
    # c * q1 * q2^3 grouped as ((((c q1) q2) q2) q2); with V at 8 digits and
    # the state at 10, c * (q1 q2^3) would claim other digits
    (3, {(0, 1): 2, (0, 0): -11, (1, 3): 29}, [1, 1], (8, 16, 10, 12), [0, 3], [2, 8], 2),
    # factors in variable order: (((c q2) q2) q2) q1 would claim other digits
    (2, {(1, 3): 3, (0, 1): -25}, [8, 3], (10, 10, 9, 15), [0, 3], [1, 3], 5),
])
def test_products_keep_the_substitution_grouping(p, terms, alphas, precisions, q0, p0,
                                                 degree):
    kv, ka, kz, ks = precisions
    H = HamiltonianSpec(p, alphas, MultiPoly(p, 2, terms, precision=kv), precision=ka)
    z0 = PhaseState(p, q0, p0, precision=kz)
    assert_same_flow(taylor_integrate(H, z0, degree, precision=ks),
                     reference_integrate(H, z0, degree, precision=ks))


def test_linear_and_empty_potentials():
    p = 3
    for terms in ({}, {(1, 0): 2, (0, 1): 5}, {(0, 0): 4, (1, 0): 1}):
        H = HamiltonianSpec(p, [1, 2], MultiPoly(p, 2, terms))
        z0 = PhaseState(p, [0, 1], [2, 0])
        assert_same_flow(taylor_integrate(H, z0, 5), reference_integrate(H, z0, 5))


def test_solver_never_substitutes(monkeypatch):
    def refuse(self, series):
        raise AssertionError("taylor_integrate called MultiPoly.substitute")

    p = 5
    V = MultiPoly(p, 2, {(3, 0): 1, (0, 3): 1, (1, 1): 2})
    H = HamiltonianSpec(p, [1, 1], V)
    z0 = PhaseState(p, [2, 3], [1, 4])
    want = reference_integrate(H, z0, 8)
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    assert_same_flow(taylor_integrate(H, z0, 8), want)
    with pytest.raises(AssertionError):
        V.substitute([PowerSeries.polynomial(p, [1])] * 2)
