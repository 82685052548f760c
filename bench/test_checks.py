"""Every benchmark check passes the library's real output and fails a planted
wrong answer (one digit flipped, one flag or exponent changed).

    python3 -m pytest bench/test_checks.py -q
"""

import os
import random
import re
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402
import workloads as w  # noqa: E402
from padicmech.core import PadicInt, PadicNumber  # noqa: E402

SEEDS = (1, 2, 3)


def passes(op, result):
    return w.checked(op.check, result) is None


def flip_literal(text):
    """Change the last tracked digit d of a Q_p literal to d + 1 mod p."""
    m = re.fullmatch(r"(v=-?\d+ )(\d+):(\d+):([\d ]+)", text)
    p, ds = int(m.group(2)), m.group(4).split()
    ds[-1] = str((int(ds[-1]) + 1) % p)
    return f"{m.group(1)}{p}:{m.group(3)}:{' '.join(ds)}"


def flip_last_digit(text):
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def fmt_of(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else None


def plant_simulate(argv, text):
    header, rows = O.parse_table(text, fmt_of(argv))
    rows[-1][-2] = flip_literal(rows[-1][-2])  # the energy column of the last row
    return O.render_table(header, rows, fmt_of(argv))


def plant_audit(argv, text):
    rec = O.parse_record(text, fmt_of(argv))
    rec["energy_gap"] = "1"
    return O.render_record(rec, fmt_of(argv))


def plant_wave(argv, text):
    rec = O.parse_record(text, fmt_of(argv))
    rec["re"] = flip_literal(rec["re"])
    return O.render_record(rec, fmt_of(argv))


PLANT_FN = {"simulate-closed": plant_simulate, "simulate-taylor": plant_simulate,
            "audit": plant_audit, "quantum-wave": plant_wave}
CLI_FAMILIES = sorted({(fam, gen) for fam, gen in w.CLI_DECK}, key=lambda fg: fg[0])


@pytest.fixture(scope="module")
def cli_ctx(tmp_path_factory):
    return w.CliMix().setup(7, str(tmp_path_factory.mktemp("records")))


@pytest.mark.parametrize("family,gen", CLI_FAMILIES, ids=[f for f, _ in CLI_FAMILIES])
def test_cli_check_catches_planted_answer(cli_ctx, family, gen):
    for seed in SEEDS:
        argv, expect = gen(random.Random(seed), cli_ctx)
        check = w.cli_check(expect)
        code, out, err = w.cli_call(argv)
        assert check((code, out, err)) is None, (argv, out, err)
        if expect[0] == "err":
            assert check((0, "", "")) is not None
            assert check((expect[1], "", "another reason")) is not None
        elif expect[0] == "out":
            assert check((0, flip_last_digit(out), err)) is not None
        else:
            planted = PLANT_FN[family](argv, out.rstrip("\n")) + "\n"
            assert check((0, planted, err)) is not None, planted


def bump(x):
    """x with its last known digit moved by one (a nonzero value if x is 0)."""
    p = x.prime
    if x.is_exact_zero:
        return PadicNumber.of(1, p)
    return x + PadicNumber.of(Fraction(p) ** (x.abs_precision - 1), p)


def shallow_zero(x):
    """x replaced by a zero known only to x's valuation: true, but no digit left."""
    return PadicNumber.zero(x.prime, x.valuation)


def one_digit(x):
    """x with its unit cut to one digit: every claimed digit right, fewer claimed."""
    return PadicNumber.from_unit(x.valuation, PadicInt(x.prime, x.unit.residue % x.prime, 1))


def build_ops(name, seed):
    wl = w.Build()
    ctx = wl.setup(seed, None)
    return [op for op in wl.cycle(ctx, 0) if op.family == name]


def plant_series(s, change=bump):
    """Apply `change` to the first nonzero coefficient after the constant one."""
    n = next(n for n, c in enumerate(s.coeffs) if n and not c.is_zero)
    s.coeffs = s.coeffs[:n] + (change(s.coeffs[n]),) + s.coeffs[n + 1:]
    return s


def plant_term(poly, expo, change):
    poly.terms[expo] = change(poly.terms[expo])


PLANT_BUILD = {
    "compose": [plant_series, lambda s: plant_series(s, shallow_zero),
                lambda s: plant_series(s, one_digit)],
    "tail": [lambda r: (bump(r[0]), r[1]), lambda r: (r[0], r[1] + 1),
             lambda r: (shallow_zero(r[0]), r[1]), lambda r: (one_digit(r[0]), r[1])],
    "taylor": [lambda t: (plant_series(t.q[0]), t)[1], lambda t: (plant_series(t.p[1]), t)[1],
               lambda t: (plant_series(t.q[1], one_digit), t)[1],
               lambda t: (plant_series(t.p[0], shallow_zero), t)[1]],
    "audit": [lambda r: r._replace(delta_kinetic=bump(r.delta_kinetic)),
              lambda r: r._replace(potential_gap=Fraction(1)),
              lambda r: r._replace(delta_kinetic=one_digit(r.delta_kinetic)),
              lambda r: r._replace(work=shallow_zero(r.work)),
              lambda r: r._replace(delta_potential=one_digit(r.delta_potential)),
              lambda r: r._replace(loss=r.loss + 1)],
    "wave": [lambda f: (plant_term(f[0], (2, 0), bump), f)[1],
             lambda f: (f[1].terms.pop((0, 1)), f)[1],
             lambda f: (plant_term(f[0], (2, 0), one_digit), f)[1],
             lambda f: (plant_term(f[1], (0, 1), shallow_zero), f)[1]],
}


@pytest.mark.parametrize("family", sorted(PLANT_BUILD))
def test_build_check_catches_planted_answer(family):
    for seed in SEEDS:
        for op in build_ops(family, seed)[:2]:
            assert passes(op, op.run()), op.label
            for plant in PLANT_BUILD[family]:
                assert not passes(op, plant(op.run())), op.label


def flip_state(z):
    q = z.q[0]
    z.q = (PadicInt(q.prime, q.residue + q.prime ** (q.precision - 1), q.precision),)
    return z


PLANT_EVAL = {
    "eval": [bump],
    "eval-tail": [lambda r: (bump(r[0]), r[1]), lambda r: (r[0], r[1] - 1)],
    "at": [flip_state],
    "wave-read": [lambda r: (bump(r[0]), r[1]), lambda r: (r[0], bump(r[1]))],
    "integral": [bump],
    "probe": [lambda r: r._replace(value=r.value + 1),
              lambda r: r._replace(certified=not r.certified)],
}


@pytest.fixture(scope="module")
def eval_ctx():
    wl = w.Evaluate()
    ctx = wl.setup(11, None)
    wl.prepare_checks(ctx)
    return wl, ctx


@pytest.mark.parametrize("family", sorted(PLANT_EVAL))
def test_evaluate_check_catches_planted_answer(eval_ctx, family):
    wl, ctx = eval_ctx
    ops = [op for i in range(3) for op in wl.cycle(ctx, i) if op.family == family]
    assert ops
    for op in ops:
        assert passes(op, op.run()), op.label
        for plant in PLANT_EVAL[family]:
            assert not passes(op, plant(op.run())), op.label


def test_oracle_reproduces_readme_examples():
    """Expected outputs built by the oracle match the README's documented ones."""
    a, b = O.parse_zp("5:4:2 3 0 1")[2], O.parse_zp("5:4:4 4 0 0")[2]
    assert O.fmt_zp(5, 4, (a + b) % 5**4) == "5:4:1 3 1 1"
    assert O.Approx.from_residue(5, a, 4).text() == "v=0 5:4:2 3 0 1"
    x = O.Approx(5, 0, 3, 2, 2)        # v=0 5:2:3 0
    y = O.Approx(5, 2, 4, 1, 3)        # v=2 5:1:4
    assert (x / y).text() == "v=-2 5:1:2"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: dual_limit_synthesize(alpha=0, J=2) fails its own "
                          "p-adic self-check, so the command crashes instead of printing")
def test_synthesize_alpha_zero_two_checkpoints():
    code, out, _ = w.cli_call(["prob", "synthesize", "--alpha=0", "--count", "2"])
    assert code == 0 and out == "N,n\n26,5\n626,25\n"
