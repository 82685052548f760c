"""Hamiltonian and Lagrangian dynamics on Z_p^N.

States carry vectors of p-adic integers; flows are power series in the time
parameter with explicit validity windows.  Closed-form flows (free and both
harmonic variants) carry sharp windows derived from the exponential family's
convergence radius; the generic Taylor solver certifies the conservative
window |t| <= r_p whenever all data live in Z_p, and otherwise requires the
caller to declare one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from padicmech.core import (
    DEFAULT_PRECISION,
    DomainViolation,
    PadicError,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    check_prime,
)
from padicmech.multi import MultiPoly, compose_series
from padicmech.series import (
    PowerSeries,
    TailFloor,
    convergence_radius,
    definite_integral,
    evaluate,
    factorial_floor,
)


class VanishingMass(PadicError):
    """Total mass cancels below the tracked precision: no center exists."""


class HierarchyViolation(PadicError):
    """Weight chain fails the strict norm descent |w_{l+1}| <= |w_l|/p."""


def _as_zp(x, prime: int, precision: int) -> PadicInt:
    """Coerce a value into Z_p at (up to) the requested precision."""
    if isinstance(x, PadicInt):
        if x.prime != prime:
            raise PrimeMismatch(f"p={prime} vs p={x.prime}")
        k = min(precision, x.precision)
        return PadicInt(prime, x.residue, k)
    x = PadicNumber.of(x, prime, precision)
    if x.is_zero:
        k = precision if x.is_exact_zero else max(1, min(precision, x.zero_known_to))
        return PadicInt(prime, 0, k)
    if x.valuation < 0:
        raise DomainViolation(f"|x|_p = {x.norm()} > 1: outside Z_p",
                              reason="state-domain")
    k = max(1, min(precision, x.abs_precision))
    return PadicInt(prime, x.residue(k), k)


class PhaseState:
    """Point (q, p) in Z_p^N x Z_p^N together with its time stamp."""

    __slots__ = ("prime", "precision", "q", "p", "t")

    def __init__(self, prime: int, q: Sequence, p: Sequence, t=0,
                 precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if len(q) == 0 or len(q) != len(p):
            raise ValueError("q and p must be equally sized, nonempty vectors")
        raw = [_as_zp(x, prime, precision) for x in (*q, *p, t)]
        k = min(x.precision for x in raw)
        fixed = tuple(PadicInt(prime, x.residue, k) for x in raw)
        n = len(q)
        self.prime = prime
        self.precision = k
        self.q = fixed[:n]
        self.p = fixed[n:2 * n]
        self.t = fixed[2 * n]

    @property
    def n(self) -> int:
        return len(self.q)

    def __eq__(self, other):
        if not isinstance(other, PhaseState):
            return NotImplemented
        return (self.prime, self.q, self.p, self.t) == (other.prime, other.q, other.p, other.t)

    def __repr__(self):
        return f"PhaseState(q={self.q}, p={self.p}, t={self.t})"


class HamiltonianSpec:
    """H(q, p) = sum_j alpha_j p_j^2 + V(q_1..q_N) with V a MultiPoly."""

    __slots__ = ("prime", "alphas", "potential", "masses")

    def __init__(self, prime: int, alphas: Sequence, potential: MultiPoly,
                 masses: Optional[Sequence] = None,
                 precision: int = DEFAULT_PRECISION):
        check_prime(prime)
        if potential.prime != prime:
            raise PrimeMismatch(f"p={prime} vs p={potential.prime}")
        self.prime = prime
        self.alphas = tuple(PadicNumber.of(a, prime, precision) for a in alphas)
        if potential.nvars != len(self.alphas):
            raise ValueError(f"potential has {potential.nvars} variables, "
                             f"kinetic part has {len(self.alphas)}")
        self.potential = potential
        self.masses = None if masses is None else tuple(
            PadicNumber.of(m, prime, precision) for m in masses)

    @classmethod
    def from_masses(cls, prime: int, masses: Sequence, potential: MultiPoly,
                    precision: int = DEFAULT_PRECISION) -> "HamiltonianSpec":
        ms = [PadicNumber.of(m, prime, precision) for m in masses]
        if any(m.is_zero for m in ms):
            raise ValueError("masses must be nonzero")
        alphas = [PadicNumber.of(Fraction(1, 2), prime, precision) / m for m in ms]
        return cls(prime, alphas, potential, masses=ms, precision=precision)

    @property
    def n(self) -> int:
        return len(self.alphas)

    def kinetic(self, z: PhaseState) -> PadicNumber:
        acc = PadicNumber.zero(self.prime)
        for a, pj in zip(self.alphas, z.p):
            pj = PadicNumber.of(pj, self.prime)
            acc = acc + a * pj * pj
        return acc

    def energy(self, z: PhaseState) -> PadicNumber:
        return self.kinetic(z) + self.potential.evaluate(list(z.q))


def free_hamiltonian(prime: int, alphas: Sequence,
                     precision: int = DEFAULT_PRECISION) -> HamiltonianSpec:
    n = len(alphas)
    return HamiltonianSpec(prime, alphas, MultiPoly(prime, n, {}), precision=precision)


def hooke_hamiltonian(prime: int, kind: str, m, beta,
                      precision: int = DEFAULT_PRECISION) -> HamiltonianSpec:
    """One-coordinate harmonic system: force f = -mb^2 q (trig) or +mb^2 q (exp),
    i.e. V = +mb^2 q^2/2 or -mb^2 q^2/2."""
    m = PadicNumber.of(m, prime, precision)
    beta = PadicNumber.of(beta, prime, precision)
    if m.is_zero or beta.is_zero:
        raise ValueError("m and beta must be nonzero")
    sign = {"hooke_trig": 1, "hooke_exp": -1}.get(kind)
    if sign is None:
        raise ValueError(f"unknown hooke kind {kind!r}")
    half = PadicNumber.of(Fraction(1, 2), prime, precision)
    v = MultiPoly(prime, 1, {(2,): sign * half * m * beta * beta})
    return HamiltonianSpec.from_masses(prime, [m], v, precision=precision)


def hamilton_rhs(H: HamiltonianSpec, z: PhaseState) -> Tuple[Tuple[PadicNumber, ...],
                                                             Tuple[PadicNumber, ...]]:
    """(qdot, pdot) with qdot_j = 2 alpha_j p_j and pdot_j = -dV/dq_j."""
    if z.prime != H.prime:
        raise PrimeMismatch(f"p={H.prime} vs p={z.prime}")
    if z.n != H.n:
        raise ValueError(f"state has {z.n} coordinates, spec has {H.n}")
    two = PadicNumber.of(2, H.prime)
    qdot = tuple(two * a * PadicNumber.of(pj, H.prime)
                 for a, pj in zip(H.alphas, z.p))
    qvals = list(z.q)
    pdot = tuple(-(H.potential.partial(j).evaluate(qvals)) for j in range(H.n))
    return qdot, pdot


class TrajectorySeries:
    """Per-coordinate series t -> (q(t), p(t)) valid on |t| <= validity."""

    __slots__ = ("prime", "q", "p", "validity")

    def __init__(self, prime: int, q: Sequence[PowerSeries], p: Sequence[PowerSeries],
                 validity: Optional[Fraction]):
        if len(q) == 0 or len(q) != len(p):
            raise ValueError("q and p series vectors must be equally sized, nonempty")
        self.prime = prime
        self.q = tuple(q)
        self.p = tuple(p)
        self.validity = None if validity is None else Fraction(validity)

    @property
    def n(self) -> int:
        return len(self.q)

    def at(self, t, precision: int = DEFAULT_PRECISION) -> PhaseState:
        tv = PadicNumber.of(t, self.prime, precision)
        if self.validity is not None and tv.norm() > self.validity:
            raise DomainViolation(
                f"|t|_p = {tv.norm()} outside the flow validity window {self.validity}",
                reason="flow-window")
        qv = [evaluate(s, tv) for s in self.q]
        pv = [evaluate(s, tv) for s in self.p]
        return PhaseState(self.prime, qv, pv, t=tv, precision=precision)


def _hooke_coeffs(prime, kind, q0, p0, m, beta, degree, precision):
    """Series coefficients for q(t), p(t) of the harmonic flow, built so no
    division by beta ever happens."""
    sign = 1 if kind == "hooke_exp" else -1
    inv_m = PadicNumber.of(1, prime, precision) / m
    qc: List[PadicNumber] = []
    pc: List[PadicNumber] = []
    for k in range(degree + 1):
        inv_f = PadicNumber.of(Fraction(1, math.factorial(k)), prime, precision)
        s = 1 if sign == 1 else (-1) ** (k // 2)
        if k % 2 == 0:
            bpow = beta**k
            qc.append(q0 * bpow * inv_f * s)
            pc.append(p0 * bpow * inv_f * s)
        else:
            bpow = beta ** (k - 1)
            qc.append(p0 * inv_m * bpow * inv_f * s)
            pc.append(q0 * m * bpow * beta * beta * inv_f * (sign * s))
    return qc, pc


def closed_flow_series(kind: str, z0: PhaseState, *, beta=None, m=None, alpha=None,
                       degree: int = 16,
                       precision: int = DEFAULT_PRECISION) -> TrajectorySeries:
    """Exact analytic flow as series in elapsed time (t_0 = 0).

    free: q_j(t) = q_j + 2 alpha_j p_j t, valid on all of Z_p.
    hooke_exp / hooke_trig: the one-coordinate harmonic flows, valid on
    |beta t|_p <= r_p.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    prime = z0.prime
    if kind == "free":
        if alpha is None:
            if m is None:
                raise ValueError("free flow needs alpha or m")
            ms = m if isinstance(m, (list, tuple)) else [m] * z0.n
            alphas = [PadicNumber.of(Fraction(1, 2), prime, precision)
                      / PadicNumber.of(x, prime, precision) for x in ms]
        else:
            al = alpha if isinstance(alpha, (list, tuple)) else [alpha] * z0.n
            alphas = [PadicNumber.of(x, prime, precision) for x in al]
        two = PadicNumber.of(2, prime, precision)
        qs, ps = [], []
        for j in range(z0.n):
            p0 = PadicNumber.of(z0.p[j], prime)
            qs.append(PowerSeries.polynomial(
                prime, [PadicNumber.of(z0.q[j], prime), two * alphas[j] * p0]))
            ps.append(PowerSeries.polynomial(prime, [p0]))
        return TrajectorySeries(prime, qs, ps, Fraction(1))
    if kind not in ("hooke_exp", "hooke_trig"):
        raise ValueError(f"unknown flow kind {kind!r}")
    if z0.n != 1:
        raise ValueError("harmonic closed flows are one-coordinate")
    if beta is None:
        raise ValueError("harmonic flow needs beta")
    if m is None:
        if alpha is None:
            raise ValueError("harmonic flow needs m or alpha")
        m = PadicNumber.of(Fraction(1, 2), prime, precision) / PadicNumber.of(
            alpha, prime, precision)
    m = PadicNumber.of(m, prime, precision)
    beta = PadicNumber.of(beta, prime, precision)
    if m.is_zero or beta.is_zero:
        raise ValueError("m and beta must be nonzero")
    q0 = PadicNumber.of(z0.q[0], prime)
    p0 = PadicNumber.of(z0.p[0], prime)
    qc, pc = _hooke_coeffs(prime, kind, q0, p0, m, beta, degree, precision)
    validity = convergence_radius(prime) / beta.norm()
    vb = beta.valuation
    base_q = min([x for x in (None if q0.is_zero else q0.valuation,
                              None if p0.is_zero else p0.valuation - m.valuation)
                  if x is not None], default=None)
    base_p = min([x for x in (None if p0.is_zero else p0.valuation,
                              None if q0.is_zero else q0.valuation + m.valuation + 2 * vb)
                  if x is not None], default=None)

    def mk(coeffs, base):
        if base is None:
            return PowerSeries.polynomial(prime, [0])
        # v(c_0) >= base; v(c_n) >= base + (n-1)*vb + min(vb, 0) - v_p(n!) for n >= 1
        floor = TailFloor(prime, [base], [(base - vb + min(vb, 0), vb, 0)])
        return PowerSeries(prime, coeffs, radius=validity, geometric=True, floor=floor)

    return TrajectorySeries(prime, [mk(qc, base_q)], [mk(pc, base_p)], validity)


def closed_flow(kind: str, z0: PhaseState, t, *, beta=None, m=None, alpha=None,
                degree: int = 16, precision: int = DEFAULT_PRECISION) -> PhaseState:
    traj = closed_flow_series(kind, z0, beta=beta, m=m, alpha=alpha,
                              degree=degree, precision=precision)
    return traj.at(t, precision=precision)


def taylor_integrate(H: HamiltonianSpec, z0: PhaseState, degree: int,
                     validity: Optional[Fraction] = None,
                     precision: int = DEFAULT_PRECISION) -> TrajectorySeries:
    """Generic series solver for qdot_j = 2 alpha_j p_j, pdot_j = -dV/dq_j.

    Step k needs coefficient k of each gradient dV/dq_j along q(t), and only
    q's coefficients 0..k enter it.  Taylor-mode recurrence: every gradient
    monomial c * q_{i1} * ... * q_{im} (factors in variable order) keeps the
    coefficient lists of its partial products c, c*q_{i1}, (c*q_{i1})*q_{i2},
    ..., and at step k each list gains one Cauchy coefficient
    sum_i prev[i] * q[k-i].  That is O(m k) work at step k, O(m D^2) per
    monomial over a run.  The grouping is the one `MultiPoly.substitute`
    uses, and each Cauchy sum is the slot `series._flat_mul` forms in a full
    product: the exact products' sum mod p^(least absolute precision), in
    any order.  So every coefficient equals the one read off a full
    substitution, digit for digit and with the same tracked precision.

    With all data in Z_p the window |t| <= r_p is certified (the recursion's
    only divisions are by k+1, so |c_k| <= p^{v_p(k!)}).  Otherwise a caller-
    declared validity window is required.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if z0.prime != H.prime or z0.n != H.n:
        raise ValueError("state and spec disagree on prime or size")
    prime, n = H.prime, H.n
    two = PadicNumber.of(2, prime, precision)
    qc = [[PadicNumber.of(z0.q[j], prime)] for j in range(n)]
    pc = [[PadicNumber.of(z0.p[j], prime)] for j in range(n)]
    # per gradient, per monomial: the factor variables and the partial
    # products' coefficient lists, the first being the constant [c]
    chains = [[([i for i, e in enumerate(expo) for _ in range(e)],
                [[c]] + [[] for _ in range(sum(expo))])
               for expo, c in H.potential.partial(j).terms.items()]
              for j in range(n)]
    for k in range(degree):
        inv = PadicNumber.of(Fraction(1, k + 1), prime, precision)
        for j in range(n):
            gk = PadicNumber.zero(prime)
            for factors, prods in chains[j]:
                for prev, i, out in zip(prods, factors, prods[1:]):
                    out.append(_cauchy_coeff(prev, qc[i], k, prime))
                if k < len(prods[-1]):  # a constant monomial stops at k = 0
                    gk = gk + prods[-1][k]
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


def _cauchy_coeff(f: Sequence[PadicNumber], g: Sequence[PadicNumber], k: int,
                  prime: int) -> PadicNumber:
    """Coefficient k of f*g, where f may stop short of k (exact zeros past
    its end): the value and precision `series._flat_mul` gives that slot."""
    acc = PadicNumber.zero(prime)
    for i in range(min(k + 1, len(f))):
        a, b = f[i], g[k - i]
        if not (a.is_exact_zero or b.is_exact_zero):
            acc = acc + a * b
    return acc


def energy_series(H: HamiltonianSpec, traj: TrajectorySeries) -> PowerSeries:
    """H(q(t), p(t)); constant (zero non-constant coefficients) on solutions."""
    acc = H.potential.substitute(list(traj.q))
    for a, pj in zip(H.alphas, traj.p):
        acc = acc + (pj * pj).scale(a)
    return acc


def total_motivation_series(traj: TrajectorySeries) -> PowerSeries:
    """Sum of the motivation series; constant under action-reaction forces."""
    acc = traj.p[0]
    for s in traj.p[1:]:
        acc = acc + s
    return acc


class RestrictionReport(NamedTuple):
    satisfied: bool
    margin: Fraction  # |q||p| divided by the bound |mb| r_p
    bound: Fraction


def restriction_check(q, p_mot, m, beta, prime: Optional[int] = None) -> RestrictionReport:
    """Observability inequality |q|_p |p|_p <= |m beta|_p r_p."""
    vals = [q, p_mot, m, beta]
    if prime is None:
        for x in vals:
            if isinstance(x, (PadicInt, PadicNumber)):
                prime = x.prime
                break
        else:
            raise ValueError("pass prime= when all arguments are plain numbers")
    q, p_mot, m, beta = (PadicNumber.of(x, prime) for x in vals)
    if m.is_zero or beta.is_zero:
        raise ValueError("m and beta must be nonzero")
    bound = m.norm() * beta.norm() * convergence_radius(prime)
    lhs = q.norm() * p_mot.norm()
    return RestrictionReport(lhs <= bound, lhs / bound, bound)


class WorkAudit(NamedTuple):
    work: PadicNumber
    delta_kinetic: PadicNumber
    delta_potential: PadicNumber
    energy_gap: Fraction     # certified bound for |W - dT|_p
    potential_gap: Fraction  # certified bound for |W + dV|_p
    loss: int                # precision digits lost to the integration divisions


def work_energy_audit(H: HamiltonianSpec, traj: TrajectorySeries, t0, t1,
                      precision: int = DEFAULT_PRECISION) -> WorkAudit:
    """Work along the trajectory vs kinetic/potential energy changes.

    W = sum_j int f_j(q(t)) qdot_j(t) dt over [t0, t1].  On a solution both
    W - dT and W + dV cancel to the tracked precision; the residual bounds
    and the division loss are reported, never absorbed.
    """
    prime = H.prime
    w = PadicNumber.zero(prime)
    qlist = list(traj.q)
    for j in range(H.n):
        force = (-H.potential.partial(j)).substitute(qlist)
        w = w + definite_integral(force * traj.q[j].derive(), t0, t1)
    tser = None
    for a, pj in zip(H.alphas, traj.p):
        part = (pj * pj).scale(a)
        tser = part if tser is None else tser + part
    vser = H.potential.substitute(qlist)
    d_t = evaluate(tser, t1) - evaluate(tser, t0)
    d_v = evaluate(vser, t1) - evaluate(vser, t0)
    gap_e = (w - d_t).norm_bound()
    gap_v = (w + d_v).norm_bound()
    known = min(x.abs_precision for x in (w, d_t, d_v))
    loss = 0 if known == math.inf else max(0, precision - known)
    return WorkAudit(w, d_t, d_v, gap_e, gap_v, loss)


class SystemSummary(NamedTuple):
    center: PadicNumber
    total_mass: PadicNumber
    total_motivation: PadicNumber


def system_reduce(masses: Sequence, z: PhaseState) -> SystemSummary:
    """Center of the system sum(m_i q_i)/M, total mass, total motivation."""
    prime = z.prime
    if len(masses) != z.n:
        raise ValueError(f"{len(masses)} masses for {z.n} coordinates")
    ms = [PadicNumber.of(m, prime) for m in masses]
    total = PadicNumber.zero(prime)
    weighted = PadicNumber.zero(prime)
    motivation = PadicNumber.zero(prime)
    for m, qj, pj in zip(ms, z.q, z.p):
        total = total + m
        weighted = weighted + m * PadicNumber.of(qj, prime)
        motivation = motivation + PadicNumber.of(pj, prime)
    if total.is_zero:
        detail = ("exactly zero" if total.is_exact_zero
                  else f"zero to depth {total.zero_known_to}")
        raise VanishingMass(f"total mass is {detail}; no center of information")
    return SystemSummary(weighted / total, total, motivation)


class BuiltPotential(NamedTuple):
    potential: MultiPoly
    layer_norms: Optional[Tuple[Fraction, ...]]


def _pair_sum(phi: PowerSeries, n: int) -> MultiPoly:
    prime = phi.prime
    acc = MultiPoly(prime, n, {})
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = MultiPoly.variable(prime, n, i) - MultiPoly.variable(prime, n, j)
            acc = acc + compose_series(phi, diff)
    return acc


def potential_build(kind: str, phi: PowerSeries, n: int,
                    weights: Optional[Sequence] = None) -> BuiltPotential:
    """Interaction potentials from a pair law Phi.

    democratic: V = sum over ordered pairs i != j of Phi(q_i - q_j).
    hierarchical: a leader chain sum_l A_l Phi(q_l - q_{l+1}) plus a weak
    democratic background B; weights (A_0..A_{n-2}, B) must descend strictly
    in norm, each step by at least a factor p.
    """
    if n < 1:
        raise ValueError("need at least one transformer")
    if phi.radius is not None:
        raise ValueError("pair potential must be a polynomial")
    prime = phi.prime
    if kind == "democratic":
        return BuiltPotential(_pair_sum(phi, n), None)
    if kind != "hierarchical":
        raise ValueError(f"unknown potential kind {kind!r}")
    if weights is None or len(weights) != n:
        raise ValueError(f"hierarchical weights must be (A_0..A_{n - 2}, B): {n} values")
    ws = [PadicNumber.of(wt, prime) for wt in weights]
    norms = tuple(wt.norm_bound() for wt in ws)
    for a, b in zip(norms, norms[1:]):
        if b > a / prime:
            raise HierarchyViolation(
                f"norm chain must fall by p each step, got {a} then {b}")
    acc = MultiPoly(prime, n, {})
    for l in range(n - 1):
        diff = MultiPoly.variable(prime, n, l) - MultiPoly.variable(prime, n, l + 1)
        acc = acc + compose_series(phi, diff).scale(ws[l])
    acc = acc + _pair_sum(phi, n).scale(ws[-1])
    return BuiltPotential(acc, norms)


class ConstraintResidual(NamedTuple):
    label: str
    residual: Fraction  # |measured norm - target radius| as a plain rational


def constraint_check(kind: str, qs: Sequence[PadicInt], *, center: Optional[PadicInt] = None,
                     radius: Optional[Fraction] = None,
                     radii: Optional[Sequence[Fraction]] = None,
                     pairs: Optional[dict] = None) -> Tuple[ConstraintResidual, ...]:
    """Exact residuals for sphere / leader-distance / rigid-body constraints."""
    out = []
    if kind == "C1_sphere":
        if center is None or radius is None:
            raise ValueError("C1 needs center and radius")
        r = Fraction(radius)
        for i, qi in enumerate(qs):
            out.append(ConstraintResidual(f"q{i}", abs((qi - center).norm() - r)))
    elif kind == "C2_leader":
        if radii is None or len(radii) != len(qs) - 1:
            raise ValueError("C2 needs one radius per follower")
        leader = qs[0]
        for i, (qi, r) in enumerate(zip(qs[1:], radii), start=1):
            out.append(ConstraintResidual(f"q{i}", abs((qi - leader).norm() - Fraction(r))))
    elif kind == "C3_rigid":
        if pairs is None:
            raise ValueError("C3 needs the pair-distance table")
        for (i, j), r in sorted(pairs.items()):
            out.append(ConstraintResidual(f"q{i}-q{j}",
                                          abs((qs[i] - qs[j]).norm() - Fraction(r))))
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return tuple(out)


def sphere_digit_test(q: PadicInt, a: PadicInt, k: int) -> bool:
    """Digit reading of |q - a|_p = p^-k: first k digits agree, digit k differs."""
    if k < 0 or k >= min(q.precision, a.precision):
        raise ValueError("need k below the tracked precision")
    qd, ad = q.digits, a.digits
    return qd[:k] == ad[:k] and qd[k] != ad[k]


def generalized_forces(forces: Sequence[MultiPoly],
                       chart: Sequence[MultiPoly]) -> Tuple[MultiPoly, ...]:
    """Q_j = sum_i F_i(q(xi)) dq_i/dxi_j for a chart q_i = q_i(xi)."""
    if len(forces) != len(chart):
        raise ValueError(f"{len(forces)} forces for {len(chart)} chart components")
    if not chart:
        raise ValueError("empty chart")
    m = chart[0].nvars
    out = []
    composed = [f.substitute_multi(list(chart)) for f in forces]
    for j in range(m):
        acc = MultiPoly(chart[0].prime, m, {})
        for fi, qi in zip(composed, chart):
            acc = acc + fi * qi.partial(j)
        out.append(acc)
    return tuple(out)


def lagrange_residual(L: MultiPoly, xi_traj: Sequence[PowerSeries]) -> Tuple[PowerSeries, ...]:
    """d/dt(dL/dxidot_j) - dL/dxi_j along the trajectory; zero certifies a solution.

    L's variables are ordered (xi_1..xi_M, xidot_1..xidot_M).
    """
    m = len(xi_traj)
    if L.nvars != 2 * m:
        raise ValueError(f"L has {L.nvars} variables; expected 2x{m} "
                         "(coordinates then velocities)")
    subs = list(xi_traj) + [s.derive() for s in xi_traj]
    out = []
    for j in range(m):
        a = L.partial(m + j).substitute(subs).derive()
        b = L.partial(j).substitute(subs)
        out.append(a - b)
    return tuple(out)


def velocity_force(V: MultiPoly, xi_traj: Sequence[PowerSeries]) -> Tuple[PowerSeries, ...]:
    """Generalized forces -dV/dxi_j + d/dt(dV/dxidot_j) for velocity-dependent V."""
    return lagrange_residual(V, xi_traj)
