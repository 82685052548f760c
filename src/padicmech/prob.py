"""Frequency probability with a choice of topology.

Relative frequencies n_j / N_j are exact rationals; whether they stabilize
depends on the topology used to compare them.  The detector runs a trailing
window Cauchy test in either the real or the p-adic metric, and the
synthesizer manufactures records whose real and p-adic limits differ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from padicmech.core import DomainViolation, check_prime, padic_norm, radius_exponent


class FrequencyRecord:
    """Checkpointed counts: trials N_1 < ... < N_J with successes n_j."""

    __slots__ = ("checkpoints", "successes")

    def __init__(self, checkpoints: Sequence[int], successes: Sequence[int]):
        ns = tuple(int(x) for x in checkpoints)
        ks = tuple(int(x) for x in successes)
        if len(ns) != len(ks) or not ns:
            raise ValueError("need matching, nonempty checkpoint and success lists")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if any(b < a for a, b in zip(ks, ks[1:])):
            raise ValueError("success counts cannot decrease")
        if any(not 0 <= k <= n for n, k in zip(ns, ks)):
            raise ValueError("need 0 <= successes <= trials at every checkpoint")
        self.checkpoints = ns
        self.successes = ks

    def __len__(self) -> int:
        return len(self.checkpoints)

    @property
    def frequencies(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(k, n) for n, k in zip(self.checkpoints, self.successes))

    def __eq__(self, other):
        if not isinstance(other, FrequencyRecord):
            return NotImplemented
        return (self.checkpoints, self.successes) == (other.checkpoints, other.successes)

    def __repr__(self):
        pairs = ", ".join(f"{n}:{k}" for n, k in zip(self.checkpoints, self.successes))
        return f"FrequencyRecord({pairs})"


class StabilizationReport(NamedTuple):
    mode: str                   # "real" or "padic"
    window: int
    threshold: Fraction         # epsilon, or p^-s
    status: str                 # "limit" | "fluctuating" | "insufficient"
    candidate: Optional[Fraction]
    gaps: Tuple[Fraction, ...]  # all pairwise gap magnitudes in the window

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "window": self.window,
            "threshold": str(self.threshold),
            "status": self.status,
            "candidate": None if self.candidate is None else str(self.candidate),
            "gaps": [str(g) for g in self.gaps],
        }


def stabilization_detect(rec: FrequencyRecord, mode: str, *, window: int,
                         epsilon: Optional[Fraction] = None,
                         prime: Optional[int] = None,
                         strength: Optional[int] = None) -> StabilizationReport:
    """Trailing-window Cauchy test on the frequency sequence.

    real mode: every pairwise |v_i - v_j| < epsilon inside the window.
    padic mode: every pairwise |v_i - v_j|_p <= p^-strength.
    A passing window reports the final frequency as the limit candidate; a
    window too short to contain a pair reports insufficient evidence.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if window > len(rec):
        raise ValueError(f"window {window} exceeds the {len(rec)} checkpoints")
    if mode == "real":
        if epsilon is None or epsilon <= 0:
            raise ValueError("real mode needs a positive epsilon")
        threshold = Fraction(epsilon)
        gap = lambda a, b: abs(a - b)
        passes = lambda g: g < threshold
    elif mode == "padic":
        if prime is None or strength is None:
            raise ValueError("padic mode needs prime and strength")
        check_prime(prime)
        threshold = Fraction(1, prime**strength)
        gap = lambda a, b: padic_norm(a - b, prime)
        passes = lambda g: g <= threshold
    else:
        raise ValueError(f"unknown topology {mode!r}")
    tail = rec.frequencies[-window:]
    if len(tail) < 2:
        return StabilizationReport(mode, window, threshold, "insufficient", None, ())
    gaps = tuple(gap(tail[i], tail[j])
                 for i in range(len(tail)) for j in range(i + 1, len(tail)))
    if all(passes(g) for g in gaps):
        return StabilizationReport(mode, window, threshold, "limit", tail[-1], gaps)
    return StabilizationReport(mode, window, threshold, "fluctuating", None, gaps)


def dual_limit_synthesize(prime: int, alpha: Fraction, J: int) -> FrequencyRecord:
    """A record whose frequencies tend to 0 in R but to alpha in Q_p.

    For a p-adic unit alpha = a/b > 0 the checkpoints are N_j = b + p^{2j}
    with constant successes a, so v_j = a/(b + p^{2j}): real limit 0, p-adic
    limit a/b since |v_j - a/b|_p = p^{-2j} |a/b^2|-ish -> 0.  For alpha = 0
    the counts are n_j = p^j against N_j = p^{2j} + 1, giving |v_j| = 1/p^j
    real and |v_j|_p = p^{-j}: both limits 0.
    """
    check_prime(prime)
    if J < 1:
        raise ValueError("need at least one checkpoint")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be a nonnegative rational")
    if alpha == 0:
        checkpoints = [prime ** (2 * j) + 1 for j in range(1, J + 1)]
        successes = [prime**j for j in range(1, J + 1)]
    else:
        a, b = alpha.numerator, alpha.denominator
        if a % prime == 0 or b % prime == 0:
            raise ValueError(f"{alpha} is not a p-adic unit for p={prime}")
        if a > b + prime**2:
            raise ValueError(f"{alpha} is infeasible: successes would exceed trials")
        checkpoints = [b + prime ** (2 * j) for j in range(1, J + 1)]
        successes = [a] * J
    rec = FrequencyRecord(checkpoints, successes)
    if J >= 2:  # sanity: the construction must satisfy its own p-adic test
        rep = stabilization_detect(rec, "padic", window=2, prime=prime, strength=2)
        if rep.status != "limit":
            raise DomainViolation(
                f"the synthesized record fails its own p-adic limit test ({rep.status})",
                reason="synthesis-check")
    return rec


def ball_volume(r: Fraction, prime: int) -> Fraction:
    """Uniform volume of a radius-r ball in Z_p: the radius itself."""
    check_prime(prime)
    r = Fraction(r)
    if r > 1:
        raise ValueError("no ball in Z_p has radius above 1")
    radius_exponent(r, prime)
    return r
