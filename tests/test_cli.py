"""Command layer: exit codes, canonical text round trips, determinism."""

import json
import random
from fractions import Fraction

import pytest

from padicmech.cli import dispatch
from padicmech.core import PadicInt, PadicNumber, parse_padic_int, parse_padic_number
from padicmech.prob import dual_limit_synthesize


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_arith_add_int_literals(capsys):
    a = PadicInt(5, 1234, 6)
    b = PadicInt(5, 4321, 6)
    rc, out, _ = run(capsys, "arith", "add", str(a), str(b))
    assert rc == 0
    assert parse_padic_int(out.strip()) == a + b


def test_arith_round_trip_random(capsys):
    rng = random.Random(17)
    one = str(PadicInt(7, 1, 8))
    for _ in range(25):
        x = PadicInt(7, rng.randrange(7**8), 8)
        rc, out, _ = run(capsys, "arith", "mul", str(x), one)
        assert rc == 0
        assert parse_padic_int(out.strip()) == x


def test_arith_division_uses_field_values(capsys):
    rc, out, _ = run(capsys, "arith", "div", "3/4", "9", "--prime", "5")
    assert rc == 0
    got = parse_padic_number(out.strip())
    assert got == PadicNumber.of(Fraction(1, 12), 5)


def test_arith_norm_and_metric(capsys):
    rc, out, _ = run(capsys, "arith", "norm", "50", "--prime", "5")
    assert (rc, out.strip()) == (0, "1/25")
    rc, out, _ = run(capsys, "arith", "metric", "1/3", "26/3", "--prime", "5")
    assert (rc, out.strip()) == (0, "1/25")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "arith", "frobnicate", "1")[0] == 1
    assert run(capsys, "arith", "add", "1")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "series", "make", "tanh")[0] == 1
    assert run(capsys, "arith", "add", "5:2:1 1", "7:2:1 1")[0] == 1


def test_domain_errors_exit_2(capsys):
    rc, _, err = run(capsys, "simulate", "--kind", "hooke_trig", "--q0", "1",
                     "--p0", "1", "--steps", "2", "--step", "1")
    assert rc == 2 and "flow-window" in err
    rc, _, err = run(capsys, "quantum", "wave", "--prime", "2")
    assert rc == 2
    rc, _, err = run(capsys, "quantum", "wave", "--prime", "13")
    assert rc == 2 and "square" in err


def test_series_eval_matches_library(capsys):
    rc, out, _ = run(capsys, "series", "eval", "exp", "5", "--prime", "5",
                     "--degree", "16")
    assert rc == 0
    from padicmech.series import elementary, evaluate
    want = evaluate(elementary("exp", 5, 16), PadicNumber.of(5, 5))
    assert parse_padic_number(out.strip()) == want


def test_series_round_trip_through_text(capsys):
    rc, out, _ = run(capsys, "series", "make", "sin", "--prime", "7",
                     "--degree", "9")
    assert rc == 0
    text = out.strip()
    rc2, out2, _ = run(capsys, "series", "add", text, text, "--prime", "7")
    assert rc2 == 0
    from padicmech.series import parse_series
    doubled = parse_series(out2.strip())
    single = parse_series(text)
    for c2, c1 in zip(doubled.coeffs, single.coeffs):
        assert c2 == c1 + c1


def test_simulate_free_table_shape(capsys):
    rc, out, _ = run(capsys, "simulate", "--kind", "free", "--q0", "1,2",
                     "--p0", "3,4", "--alphas", "1/2,1/2", "--prime", "7",
                     "--steps", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,q_1,q_2,p_1,p_2,H,P"
    assert len(lines) == 4
    h_col = [ln.split(",")[5] for ln in lines[1:]]
    p_col = [ln.split(",")[6] for ln in lines[1:]]
    assert len(set(h_col)) == 1 and len(set(p_col)) == 1


def test_simulate_hooke_defaults_to_observable_steps(capsys):
    rc, out, _ = run(capsys, "simulate", "--kind", "hooke_trig", "--q0", "2",
                     "--p0", "3", "--m", "1", "--beta", "1", "--steps", "3")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    times = [parse_padic_number(r.split(",")[0]) for r in rows]
    assert [str(t) for t in times] == [
        str(PadicNumber.of(5 * i, 5)) for i in range(3)]
    h_col = {r.split(",")[3] for r in rows}
    assert len(h_col) == 1


def test_simulate_taylor_agrees_with_closed(capsys):
    base = ["simulate", "--kind", "hooke_exp", "--q0", "2", "--p0", "3",
            "--m", "1", "--beta", "1", "--prime", "5", "--steps", "4",
            "--degree", "14"]
    rc1, closed, _ = run(capsys, *base)
    rc2, taylor, _ = run(capsys, *base, "--method", "taylor")
    assert rc1 == rc2 == 0
    assert closed == taylor


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_simulate_refuses_fewer_than_one_step(capsys, steps):
    rc, out, err = run(capsys, "simulate", "--kind", "hooke_trig", "--prime", "5",
                       "--steps", steps)
    assert (rc, out) == (1, "")
    assert "--steps must be at least 1" in err


@pytest.mark.parametrize("method", ["closed", "taylor"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_both_flow_methods_refuse_degree_below_one(capsys, method, degree):
    rc, out, err = run(capsys, "simulate", "--kind", "hooke_trig", "--method", method,
                       "--degree", degree)
    assert (rc, out) == (1, "")
    assert err == "usage error: degree must be at least 1\n"


def test_audit_reports_certified_gaps(capsys):
    rc, out, _ = run(capsys, "audit", "--kind", "hooke_exp", "--q0", "2",
                     "--p0", "3", "--m", "1", "--beta", "1", "--t0", "0",
                     "--t1", "5", "--prime", "5", "--degree", "24")
    assert rc == 0
    rep = json.loads(out)
    assert Fraction(rep["energy_gap"]) <= Fraction(1, 5**10)
    assert Fraction(rep["potential_gap"]) <= Fraction(1, 5**10)
    assert rep["loss"] == 0


def test_restrict_verdict(capsys):
    rc, out, _ = run(capsys, "restrict", "--q", "1", "--momentum", "1",
                     "--m", "1", "--beta", "1", "--prime", "5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["satisfied"] is False and Fraction(rep["margin"]) == 5


def test_prob_pipeline_through_files(tmp_path, capsys):
    data = tmp_path / "rec.csv"
    rc, _, _ = run(capsys, "prob", "synthesize", "--alpha", "1", "--count", "8",
                   "--prime", "5", "--out", str(data))
    assert rc == 0
    body = data.read_text()
    rec = dual_limit_synthesize(5, Fraction(1), 8)
    want = "N,n\n" + "\n".join(f"{n},{s}" for n, s in
                               zip(rec.checkpoints, rec.successes)) + "\n"
    assert body == want
    rc, out, _ = run(capsys, "prob", "detect", "--data", str(data), "--mode",
                     "padic", "--strength", "4", "--window", "3", "--prime", "5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["status"] == "limit"
    rc, out, _ = run(capsys, "prob", "detect", "--data", str(data), "--mode",
                     "real", "--epsilon", "1/1000000", "--window", "3")
    assert json.loads(out)["status"] == "limit"
    assert Fraction(json.loads(out)["candidate"]) < Fraction(1, 10**6)


def test_prob_volume(capsys):
    rc, out, _ = run(capsys, "prob", "volume", "--radius", "1/125", "--prime", "5")
    assert (rc, out.strip()) == (0, "1/125")
    assert run(capsys, "prob", "volume", "--radius", "2/3", "--prime", "5")[0] == 1


def test_quantum_wave_unit_modulus(capsys):
    rc, out, _ = run(capsys, "quantum", "wave", "--momentum", "3", "--energy",
                     "1", "--t", "1", "--x", "1", "--prime", "7")
    assert rc == 0
    rep = json.loads(out)
    assert parse_padic_number(rep["modulus_sq"]) == PadicNumber.of(1, 7)
    assert parse_padic_number(rep["im"]).norm() == Fraction(1, 7)


def test_quantum_born_and_spectrum(capsys):
    rc, out, _ = run(capsys, "quantum", "born", "--amplitudes", "3/5,4/5")
    assert rc == 0
    assert json.loads(out)["weights"] == ["9/25", "16/25"]
    rc, out, _ = run(capsys, "quantum", "born", "--amplitudes", "1/2,1/2")
    assert rc == 2
    rc, out, _ = run(capsys, "quantum", "spectrum", "--omega", "1", "--level",
                     "1", "--depth", "3", "--prime", "5")
    gaps = [w["gap_norm"] for w in json.loads(out)["witnesses"]]
    assert gaps == ["1", "1/5", "1/25"]


def test_quantum_interfere_starts_at_two(capsys):
    rc, out, _ = run(capsys, "quantum", "interfere", "--degree", "6",
                     "--prime", "7")
    assert rc == 0
    from padicmech.series import parse_series
    t = parse_series(out.strip())
    assert t.coeffs[0] == PadicNumber.of(2, 7)
    assert t.coeffs[1].is_zero


def test_embed_matches_library_oracle(capsys):
    rc, out, _ = run(capsys, "embed", "--center", "3:4:1 0 1 0", "--prime", "3",
                     "--level", "1", "--depth", "2", "--k", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "member,value,error_bound"
    from padicmech.core import monna_embed
    members = [parse_padic_int(ln.split(",")[0]) for ln in lines[1:]]
    assert len(members) == 3
    for ln, m in zip(lines[1:], members):
        _, val, bound = ln.split(",")
        img = monna_embed(m, 3)
        assert Fraction(val) == img.value and Fraction(bound) == img.error_bound


def test_preset_fills_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prime=7\ndegree=3\n# comment line\n")
    rc, out, _ = run(capsys, "series", "make", "exp", "--preset", str(cfg))
    assert rc == 0 and out.startswith("7:3:[")
    rc, out, _ = run(capsys, "series", "make", "exp", "--preset", str(cfg),
                     "--prime", "5")
    assert rc == 0 and out.startswith("5:3:[")
    assert run(capsys, "series", "make", "exp", "--preset",
               str(tmp_path / "nope.cfg"))[0] == 1


def test_output_file_and_stdout_agree(tmp_path, capsys):
    target = tmp_path / "series.txt"
    args = ["series", "make", "cos", "--prime", "5", "--degree", "6"]
    rc, out, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args, "--out", str(target))
    assert rc == rc2 == 0 and out2 == ""
    assert target.read_text() == out


def test_reruns_are_byte_identical(capsys):
    cases = [
        ["simulate", "--kind", "hooke_trig", "--q0", "2", "--p0", "3",
         "--m", "1", "--beta", "1", "--prime", "5", "--steps", "4"],
        ["quantum", "schwarz", "--seed", "11", "--count", "40", "--prime", "7"],
        ["prob", "synthesize", "--alpha", "2/3", "--count", "6", "--prime", "7"],
        ["embed", "--center", "0", "--level", "0", "--depth", "2", "--prime", "5"],
    ]
    for argv in cases:
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_format_switches(capsys):
    rc, out, _ = run(capsys, "restrict", "--q", "5", "--momentum", "5",
                     "--m", "1", "--beta", "1", "--prime", "5",
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "key,value"
    rc, out, _ = run(capsys, "embed", "--center", "0", "--depth", "1",
                     "--prime", "5", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["columns"] == ["member", "value", "error_bound"]
    assert len(rep["rows"]) == 5


def _preset(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_preset_choices_are_checked_like_flags(tmp_path, capsys):
    rc, out, err = run(capsys, "restrict", "--q", "1", "--momentum", "1",
                       "--preset", _preset(tmp_path, "format=xml\n"))
    assert (rc, out) == (1, "") and "invalid choice" in err


def test_preset_method_is_checked_like_flags(tmp_path, capsys):
    rc, out, err = run(capsys, "simulate", "--steps", "1",
                       "--preset", _preset(tmp_path, "method=bogus\n"))
    assert (rc, out) == (1, "") and "invalid choice" in err


def test_preset_cannot_set_internal_attributes(tmp_path, capsys):
    rc, out, err = run(capsys, "series", "make", "exp",
                       "--preset", _preset(tmp_path, "handler=x\n"))
    assert (rc, out) == (1, "") and err.startswith("usage error")


def test_abbreviated_flag_beats_preset(tmp_path, capsys):
    rc, out, _ = run(capsys, "series", "make", "exp", "--degree", "1",
                     "--preset", _preset(tmp_path, "precision=7\n"), "--prec", "3")
    assert rc == 0 and out.startswith("5:1:[v=0 5:3:")


def test_cached_parser_keeps_no_state_between_parses(tmp_path, capsys, monkeypatch):
    from padicmech import cli
    commands = [
        ("series", "make", "exp", "--preset", _preset(tmp_path, "degree=3\nprecision=5\n")),
        ("arith", "add", "1/3", "2"),
        ("series", "make", "exp", "--format", "xml"),
        ("arith", "add"),  # operands is nargs="*"
    ]
    dispatch(["arith", "add", "1", "2"])
    shared = cli._PARSER
    capsys.readouterr()
    cached = [run(capsys, *argv) for argv in commands]
    assert cli._PARSER is shared
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [0, 0, 1, 1]


def test_parser_is_not_built_at_import():
    import subprocess
    import sys
    code = "import padicmech.cli as c; print(c._PARSER)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "None"


@pytest.mark.parametrize("argv", [
    ["embed", "--center", "0", "--level", "0", "--depth", "2", "--prime", "5"],
    ["quantum", "schwarz", "--count", "11", "--prime", "7"],
])
def test_unbounded_work_is_refused_before_it_starts(monkeypatch, capsys, argv):
    # a cap of 10 stands in for the real one: 25 members or 11 samples exceed it
    monkeypatch.setattr("padicmech.cli.ENUMERATION_CAP", 10)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "") and "cap 10" in err


def test_work_at_the_cap_still_runs(monkeypatch, capsys):
    monkeypatch.setattr("padicmech.cli.ENUMERATION_CAP", 10)
    rc, _, _ = run(capsys, "quantum", "schwarz", "--count", "10", "--prime", "7")
    assert rc == 0
    rc, _, _ = run(capsys, "embed", "--center", "0", "--level", "1", "--depth", "2",
                   "--prime", "5")
    assert rc == 0


def test_synthesis_self_check_exits_with_its_tag(capsys):
    rc, out, err = run(capsys, "prob", "synthesize", "--alpha=0", "--count", "2")
    assert (rc, out) == (2, "") and "[synthesis-check]" in err


@pytest.mark.parametrize("argv, want", [
    (["arith", "add", "1", "0"], "v=0 5:12:1 0 0 0 0 0 0 0 0 0 0 0"),
    (["arith", "mul", "3", "0"], "v=0 5:1:0"),
    (["arith", "sub", "2", "0", "--prime", "7"], "v=0 7:12:2 0 0 0 0 0 0 0 0 0 0 0"),
])
def test_arith_computes_only_the_requested_op(capsys, argv, want):
    assert run(capsys, *argv)[:2] == (0, want + "\n")


def test_arith_division_by_zero_still_refused(capsys):
    rc, _, err = run(capsys, "arith", "div", "1", "0")
    assert rc == 1 and "division by zero" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--precision", "-3"],
    ["arith", "add", "1/3", "2", "--precision", "-3"],
    ["series", "make", "exp", "--precision", "-2"],
    ["restrict", "--q", "1", "--momentum", "1", "--precision", "-1"],
    ["arith", "add", "0", "0", "--precision", "0"],
    ["embed", "--center", "1", "--level", "1", "--depth", "2", "--precision", "-1"],
])
def test_precision_below_one_digit_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert "precision must be at least 1 digit" in err
