"""Tail certificates: the TailFloor data type against the recursive definition.

The reference below is the closure algebra the floors were once built from:
each operation's floor is a function of n that calls its operands' floors.
It is the definition the data type must reproduce at every index `evaluate`
reads.  Values past +-_BIG/2 are the sentinels for an exact-zero coefficient
(+) and an unknown one (-), and are compared as such.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicmech.core import PadicNumber, _int_valuation, radius_exponent
from padicmech.mechanics import (
    HamiltonianSpec,
    PhaseState,
    closed_flow_series,
    taylor_integrate,
)
from padicmech.multi import MultiPoly
from padicmech.series import (
    PowerSeries,
    TailFloor,
    elementary,
    evaluate,
    factorial_valuation,
)

BIG = 10**9
WINDOW = 65


# --- the reference: floors as closures ------------------------------------------

def memo(fn):
    return functools.lru_cache(maxsize=None)(fn)


def ref_view(f, cf):
    """The floor a product or sum reads: the closure, else the coefficients."""
    if cf is not None:
        return cf

    def view(n):
        if n <= f.degree:
            return BIG if f.coeffs[n].is_zero else f.coeffs[n].valuation
        return BIG if f.radius is None else -BIG
    return view


def ref_sum(a, b):
    fa, fb = ref_view(*a), ref_view(*b)
    return memo(lambda n: min(fa(n), fb(n))) if a[1] or b[1] else None


def ref_product(a, b):
    fa, fb = ref_view(*a), ref_view(*b)
    return (memo(lambda n: min(fa(i) + fb(n - i) for i in range(n + 1)))
            if a[1] or b[1] else None)


def ref_flow(p, base, vb):
    return memo(lambda n: base + (n - 1) * vb + min(vb, 0) - factorial_valuation(n, p)
                if n else base)


def ref_factorial(p):
    return memo(lambda n: -factorial_valuation(n, p))


# --- random expression trees: (series, reference closure or None) ---------------

def unit_times_power(data, p, lo, hi):
    u = data.draw(st.integers(1, 40).filter(lambda k: k % p))
    return Fraction(u) * Fraction(p) ** data.draw(st.integers(lo, hi))


def leaf(data, p, d):
    kind = data.draw(st.sampled_from(["elem", "elem", "poly", "closed", "taylor"]))
    if kind == "elem":
        e = elementary(data.draw(st.sampled_from(["exp", "sin", "cos"])), p, d)
        return e, ref_factorial(p)
    if kind == "poly":
        order = data.draw(st.integers(0, 2))
        coeffs = [0] * order + data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
        return PowerSeries.polynomial(p, coeffs), None
    if kind == "closed":
        beta = unit_times_power(data, p, -1, 2)
        q0, p0 = (data.draw(st.integers(0, 50)) for _ in range(2))
        traj = closed_flow_series(data.draw(st.sampled_from(["hooke_exp", "hooke_trig"])),
                                  PhaseState(p, [q0], [p0]), m=1, beta=beta, degree=d)
        if q0 == p0 == 0:  # the zero polynomial
            return traj.q[0], None
        vb = PadicNumber.of(beta, p).valuation
        vq, vp = (_int_valuation(c, p) if c else BIG for c in (q0, p0))
        if data.draw(st.booleans()):  # m = 1, so v(m) = 0 in both bases
            return traj.q[0], ref_flow(p, min(vq, vp), vb)
        return traj.p[0], ref_flow(p, min(vp, vq + 2 * vb), vb)
    H = HamiltonianSpec(p, [1], MultiPoly(p, 1, {(2,): 1}))
    traj = taylor_integrate(H, PhaseState(p, [data.draw(st.integers(0, 20))],
                                          [data.draw(st.integers(0, 20))]), min(d, 5))
    return traj.q[0], ref_factorial(p)


def tree(data, p, d, depth):
    if depth == 0 or data.draw(st.integers(0, 3)) == 0:
        return leaf(data, p, d)
    op = data.draw(st.sampled_from(["mul", "mul", "add", "const", "scale", "linear",
                                    "derive", "integrate"]))
    f, cf = node = tree(data, p, d, depth - 1)
    if op in ("mul", "add"):
        other = tree(data, p, d, depth - 1)
        if op == "mul":
            return f * other[0], ref_product(node, other)
        return f + other[0], ref_sum(node, other)
    if op == "const":
        g = f + data.draw(st.integers(-30, 30))
        v0 = BIG if g.coeffs[0].is_zero else g.coeffs[0].valuation
        return g, cf and memo(lambda n: v0 if n == 0 else cf(n))
    if op == "scale":
        c = unit_times_power(data, p, -2, 2)
        vc = PadicNumber.of(c, p).valuation
        return f.scale(c), cf and memo(lambda n: cf(n) + vc)
    if op == "linear":
        c = unit_times_power(data, p, 0, 2)
        g = f.compose(PowerSeries.polynomial(p, [0, c]))
        vc = PadicNumber.of(c, p).valuation
        return g, cf and memo(lambda n: cf(n) + n * vc)
    if op == "derive":
        g = f.derive()
        if f.degree == 0:
            return g, None
        return g, cf and memo(lambda n: cf(n + 1) + _int_valuation(n + 1, p))
    g = f.antiderivative()
    return g, cf and memo(lambda n: BIG if n == 0 else cf(n - 1) - _int_valuation(n, p))


def sentinel(v):
    return BIG if v >= BIG // 2 else -BIG if v <= -BIG // 2 else v


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), d=st.integers(2, 9))
def test_floor_matches_the_closure_definition(data, p, d):
    f, ref = tree(data, p, d, 3)
    if ref is None:
        assert f.floor is None
        return
    reads = range(f.degree + WINDOW + 1)
    if f.floor is None:
        # an uncertified truncation entered: the definition certifies nothing
        assert min(ref(n) for n in range(f.degree + 1, f.degree + WINDOW + 1)) <= -BIG // 2
        return
    assert [sentinel(f.floor.at(n)) for n in reads] == [sentinel(ref(n)) for n in reads]


def test_shifted_terms_through_rescaling_calculus_and_products():
    # x*exp carries the shifted term -v((n-1)!); rescaled it gets a slope,
    # its derivative and primitive pick up v_p(n+1) and v_p(n)
    p = 3
    x = (PowerSeries.polynomial(p, [0, 1]), None)
    e = (elementary("exp", p, 6), ref_factorial(p))
    xe = (x[0] * e[0], ref_product(x, e))
    vc = 1
    scaled = (xe[0].compose(PowerSeries.polynomial(p, [0, 3])),
              memo(lambda n: xe[1](n) + n * vc))
    nodes = [xe, scaled, (scaled[0] * e[0], ref_product(scaled, e)),
             (e[0] * scaled[0], ref_product(e, scaled)),
             (xe[0].derive(), memo(lambda n: xe[1](n + 1) + _int_valuation(n + 1, p))),
             (xe[0].antiderivative(),
              memo(lambda n: BIG if n == 0 else xe[1](n - 1) - _int_valuation(n, p)))]
    for f, ref in nodes:
        reads = range(f.degree + WINDOW + 1)
        assert [sentinel(f.floor.at(n)) for n in reads] == [sentinel(ref(n)) for n in reads]


# --- the window lemma ---------------------------------------------------------------

def certified(data, p, d):
    """A product of up to 3 of exp/sin/cos and closed flows, scaled and rescaled."""
    acc = None
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            f = elementary(data.draw(st.sampled_from(["exp", "sin", "cos"])), p, d)
        else:
            traj = closed_flow_series(data.draw(st.sampled_from(["hooke_exp", "hooke_trig"])),
                                      PhaseState(p, [1], [data.draw(st.integers(0, 9))]),
                                      m=1, beta=unit_times_power(data, p, -1, 3), degree=d)
            f = traj.q[0]
        if data.draw(st.booleans()):
            f = f.scale(unit_times_power(data, p, -3, 3))
        if data.draw(st.booleans()):
            f = f.compose(PowerSeries.polynomial(p, [0, unit_times_power(data, p, 0, 3)]))
        acc = f if acc is None else acc * f
    return acc


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11]), d=st.integers(2, 24))
def test_the_65_term_window_holds_the_least_tail_term(data, p, d):
    f = certified(data, p, d)
    d = f.degree
    # a point on the disc: v(x) >= r where the radius is p^-r
    vx = radius_exponent(f.radius, p) + data.draw(st.integers(0, 3))
    x = PadicNumber.of(Fraction(p) ** vx, p)
    window = min(f.floor.at(n) + n * vx for n in range(d + 1, d + WINDOW + 1))
    far = min(f.floor.at(n) + n * vx for n in range(d + 1, d + 401))
    assert window == far
    assert evaluate(f, x, with_tail=True)[1] == window


# --- the data type ------------------------------------------------------------------

def test_pure_rules_stay_one_term_through_products():
    p = 5
    e = elementary("exp", p, 8)
    f = e * elementary("sin", p, 8) * elementary("cos", p, 8) * e * e
    assert f.floor == TailFloor(p, terms=[(0, 0, 0)])
    assert evaluate(f, p, with_tail=True)[1] == 8


def test_polynomial_factor_shifts_the_rule():
    p = 3
    f = PowerSeries.polynomial(p, [0, 9]) * elementary("exp", p, 6)
    # x * 9 * exp: v(c_n) >= 2 - v(n-1)!, and c_0 is an exact zero
    assert f.floor == TailFloor(p, terms=[(2, 0, 1)])
    assert f.floor.at(0) == BIG
    assert f.floor.at(5) == 2 - factorial_valuation(4, p)


def test_closed_flow_head_only_where_it_differs_from_the_rule():
    p = 5
    z = PhaseState(p, [1], [1])
    flat = closed_flow_series("hooke_trig", z, m=1, beta=3, degree=6).q[0]
    assert flat.floor.head == ()
    steep = closed_flow_series("hooke_trig", z, m=1, beta=25, degree=6).q[0]
    assert steep.floor.head == (0,) and steep.floor.rule(0) == -2


def test_uncertified_truncation_voids_the_certificate():
    p = 5
    raw = PowerSeries(p, [1, 1, 1], radius=Fraction(1, 5))
    for f in (raw * elementary("exp", p, 6), elementary("exp", p, 6) + raw):
        assert f.floor is None
        assert evaluate(f, p, with_tail=True)[1] is None


def test_a_late_polynomial_term_stretches_the_window():
    # x + 3^-200 x^100 times exp truncates at degree 6; the omitted
    # coefficient of x^100 has valuation -200, far past the 65-term window
    p = 3
    poly = PowerSeries.polynomial(p, [0, 1] + [0] * 98 + [Fraction(1, 3**200)])
    for f in (poly * elementary("exp", p, 5), elementary("exp", p, 5) + poly):
        assert evaluate(f, p, with_tail=True)[1] == -200 + 100
