"""Frequency records, the two-topology detector, and the synthesizer."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmech.core import DomainViolation, padic_norm
from padicmech.prob import (
    FrequencyRecord,
    ball_volume,
    dual_limit_synthesize,
    stabilization_detect,
)


def test_record_validation():
    rec = FrequencyRecord([2, 4, 6], [1, 2, 3])
    assert rec.frequencies == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        FrequencyRecord([4, 2], [1, 1])          # not increasing
    with pytest.raises(ValueError):
        FrequencyRecord([2, 4], [2, 1])          # successes drop
    with pytest.raises(ValueError):
        FrequencyRecord([2, 4], [3, 4])          # successes exceed trials
    with pytest.raises(ValueError):
        FrequencyRecord([], [])


def test_constant_frequency_stabilizes_in_both_topologies():
    rec = FrequencyRecord([2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
    real = stabilization_detect(rec, "real", window=3, epsilon=Fraction(1, 100))
    assert real.status == "limit" and real.candidate == Fraction(1, 2)
    padic = stabilization_detect(rec, "padic", window=3, prime=5, strength=3)
    assert padic.status == "limit" and padic.candidate == Fraction(1, 2)


def test_alternating_frequencies_fluctuate():
    # frequencies 1/3, 2/3, 1/3, 2/3, ... with non-decreasing counts
    checkpoints = [3, 6, 12, 24, 48, 96]
    successes = [1, 4, 4, 16, 16, 64]
    rec = FrequencyRecord(checkpoints, successes)
    want = [Fraction(1, 3), Fraction(2, 3)] * 3
    assert list(rec.frequencies) == want
    real = stabilization_detect(rec, "real", window=4, epsilon=Fraction(1, 10))
    assert real.status == "fluctuating" and real.candidate is None
    padic = stabilization_detect(rec, "padic", window=4, prime=5, strength=1)
    assert padic.status == "fluctuating"


def test_detector_guards():
    rec = FrequencyRecord([2, 4], [1, 2])
    with pytest.raises(ValueError):
        stabilization_detect(rec, "real", window=3, epsilon=Fraction(1, 10))
    with pytest.raises(ValueError):
        stabilization_detect(rec, "real", window=0, epsilon=Fraction(1, 10))
    with pytest.raises(ValueError):
        stabilization_detect(rec, "real", window=2)          # missing epsilon
    with pytest.raises(ValueError):
        stabilization_detect(rec, "padic", window=2, prime=5)  # missing strength
    with pytest.raises(ValueError):
        stabilization_detect(rec, "ultra", window=2, epsilon=Fraction(1, 10))


def test_single_checkpoint_is_insufficient():
    rec = FrequencyRecord([7], [3])
    rep = stabilization_detect(rec, "real", window=1, epsilon=Fraction(1, 10))
    assert rep.status == "insufficient"
    assert rep.candidate is None and rep.gaps == ()


def test_report_is_json_serializable():
    rec = FrequencyRecord([2, 4, 6], [1, 2, 3])
    rep = stabilization_detect(rec, "padic", window=2, prime=3, strength=2)
    blob = json.dumps(rep.as_dict())
    back = json.loads(blob)
    assert back["status"] == "limit"
    assert back["candidate"] == "1/2"
    assert back["threshold"] == "1/9"


def test_dual_limit_unit_alpha_oracle():
    # alpha = 1 at p = 5: checkpoints 1 + 25^j, one success throughout
    rec = dual_limit_synthesize(5, Fraction(1), 20)
    want = tuple(Fraction(1, 1 + 5 ** (2 * j)) for j in range(1, 21))
    assert rec.frequencies == want
    real = stabilization_detect(rec, "real", window=5, epsilon=Fraction(1, 10**6))
    assert real.status == "limit"
    assert real.candidate < Fraction(1, 10**6)       # the real limit is 0, not 1
    padic = stabilization_detect(rec, "padic", window=5, prime=5, strength=4)
    assert padic.status == "limit"
    assert padic_norm(padic.candidate - 1, 5) <= Fraction(1, 5**4)


def test_dual_limit_general_unit():
    rec = dual_limit_synthesize(7, Fraction(2, 3), 10)
    padic = stabilization_detect(rec, "padic", window=3, prime=7, strength=4)
    assert padic.status == "limit"
    assert padic_norm(padic.candidate - Fraction(2, 3), 7) <= Fraction(1, 7**4)
    real = stabilization_detect(rec, "real", window=3, epsilon=Fraction(1, 10**4))
    assert real.status == "limit" and real.candidate < Fraction(1, 10**4)


def test_dual_limit_zero_alpha_converges_padically():
    rec = dual_limit_synthesize(5, Fraction(0), 8)
    freqs = rec.frequencies
    assert freqs[2] == Fraction(5**3, 5**6 + 1)
    # |v_j|_5 = 5^-j: genuinely null in Q_5, not just in R
    for j, v in enumerate(freqs, start=1):
        assert padic_norm(v, 5) == Fraction(1, 5**j)
    padic = stabilization_detect(rec, "padic", window=3, prime=5, strength=4)
    assert padic.status == "limit"
    assert padic_norm(padic.candidate, 5) <= Fraction(1, 5**4)


def test_synthesizer_guards():
    with pytest.raises(ValueError):
        dual_limit_synthesize(5, Fraction(1, 5), 4)    # not a unit
    with pytest.raises(ValueError):
        dual_limit_synthesize(5, Fraction(-1), 4)
    with pytest.raises(ValueError):
        dual_limit_synthesize(5, Fraction(30), 4)      # successes would exceed trials
    with pytest.raises(ValueError):
        dual_limit_synthesize(5, Fraction(1), 0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    a=st.integers(1, 6),
    b=st.integers(1, 6),
    J=st.integers(2, 40),
)
def test_synthesized_records_pass_their_padic_test(p, a, b, J):
    alpha = Fraction(a, b)
    if alpha.numerator % p == 0 or alpha.denominator % p == 0:
        alpha = Fraction(1)
    rec = dual_limit_synthesize(p, alpha, J)
    rep = stabilization_detect(rec, "padic", window=2, prime=p, strength=2)
    assert rep.status == "limit"
    assert padic_norm(rep.candidate - alpha, p) <= Fraction(1, p**2)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(1, 9), st.integers(0, 9)), min_size=2, max_size=12),
    p=st.sampled_from([3, 5, 13]),
    s=st.integers(1, 6),
)
def test_padic_pass_bounds_the_last_step(steps, p, s):
    n_tot, k_tot = 0, 0
    checkpoints, successes = [], []
    for dn, dk in steps:
        n_tot += dn
        k_tot += min(dk, n_tot - k_tot)
        checkpoints.append(n_tot)
        successes.append(k_tot)
    rec = FrequencyRecord(checkpoints, successes)
    w = min(len(rec), 4)
    rep = stabilization_detect(rec, "padic", window=w, prime=p, strength=s)
    last_gap = padic_norm(rec.frequencies[-1] - rec.frequencies[-2], p)
    if rep.status == "limit" and w >= 2:
        assert last_gap <= Fraction(1, p**s)
    elif last_gap > Fraction(1, p**s) and w >= 2:
        assert rep.status == "fluctuating"


def test_ball_volumes():
    assert ball_volume(Fraction(1), 5) == 1
    assert ball_volume(Fraction(1, 5), 5) == Fraction(1, 5)
    assert ball_volume(Fraction(1, 4), 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        ball_volume(Fraction(5), 5)
    with pytest.raises(ValueError):
        ball_volume(Fraction(2, 3), 5)
    with pytest.raises(ValueError):
        ball_volume(Fraction(1, 6), 5)
    with pytest.raises(ValueError):
        ball_volume(Fraction(0), 5)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(0, 11))
def test_ball_volume_additivity(p, k):
    whole = ball_volume(Fraction(1, p**k), p)
    parts = [ball_volume(Fraction(1, p ** (k + 1)), p) for _ in range(p)]
    assert sum(parts) == whole


def test_synthesis_self_check_survives_optimised_runs():
    # the alpha = 0 record with two checkpoints fails its own p-adic test;
    # the check raises a domain error, which `python -O` cannot strip
    with pytest.raises(DomainViolation) as info:
        dual_limit_synthesize(5, 0, 2)
    assert info.value.reason == "synthesis-check"
