"""Golden test: every `padicmech ...` line of the README, byte for byte.

Each example runs through `cli.dispatch`; the exit code and the exact
stdout bytes are pinned, so a refactor that changes any rendered digit or
separator fails here.  `record.csv` in the examples is redirected into the
test's temporary directory.
"""

import shlex
from pathlib import Path

import pytest

from padicmech.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"

EMBED_TABLE = "member,value,error_bound\n" + "".join(
    f"5:2:{lo} {hi},{value},1/25\n"
    for hi, row in enumerate((
        ("0", "1/5", "2/5", "3/5", "4/5"),
        ("1/25", "6/25", "11/25", "16/25", "21/25"),
        ("2/25", "7/25", "12/25", "17/25", "22/25"),
        ("3/25", "8/25", "13/25", "18/25", "23/25"),
        ("4/25", "9/25", "14/25", "19/25", "24/25")))
    for lo, value in enumerate(row))

GOLDEN = {
    "padicmech arith add '5:4:2 3 0 1' '5:4:4 4 0 0'":
        (0, "5:4:1 3 1 1\n"),
    "padicmech arith div 'v=0 5:2:3 0' 'v=2 5:1:4'":
        (0, "v=-2 5:1:2\n"),
    "padicmech series eval exp 25 --prime 5 --degree 12":
        (0, "v=0 5:12:1 0 1 0 3 2 3 1 2 0 2 4\n"),
    "padicmech series probe '3:3:[v=0 3:1:0,v=0 3:2:2 2,v=0 3:1:0,v=0 3:2:1 0]' --depth 2":
        (0, '{"certified": true, "depth": 2, "upper_bound": "1/3", "value": "1/3"}\n'),
    "padicmech simulate --kind hooke_trig --q0 2 --p0 3 --m 1 --beta 1 --prime 5 --steps 3":
        (0, "t,q_1,p_1,H,P\n"
            "v=0 5:1:0,v=0 5:12:2 0 0 0 0 0 0 0 0 0 0 0,v=0 5:12:3 0 0 0 0 0 0 0 0 0 0 0,"
            "v=0 5:12:4 3 2 2 2 2 2 2 2 2 2 2,v=0 5:12:3 0 0 0 0 0 0 0 0 0 0 0\n"
            "v=1 5:12:1 0 0 0 0 0 0 0 0 0 0 0,v=0 5:12:2 3 4 1 2 3 4 4 3 2 1 3,"
            "v=0 5:12:3 3 0 4 4 1 1 0 3 4 1 4,v=0 5:12:4 3 2 2 2 2 2 2 2 2 2 2,"
            "v=0 5:12:3 3 0 4 4 1 1 0 3 4 1 4\n"
            "v=1 5:12:2 0 0 0 0 0 0 0 0 0 0 0,v=0 5:12:2 1 2 0 1 2 1 2 4 3 4 1,"
            "v=0 5:12:3 1 3 4 2 3 1 3 3 4 4 3,v=0 5:12:4 3 2 2 2 2 2 2 2 2 2 2,"
            "v=0 5:12:3 1 3 4 2 3 1 3 3 4 4 3\n"),
    "padicmech audit --kind hooke_exp --q0 2 --p0 3 --m 1 --beta 1 --t1 5 --prime 5 --degree 24":
        (0, '{"delta_kinetic": "v=1 5:11:1 0 3 0 0 3 1 2 0 0 4", '
            '"delta_potential": "v=1 5:11:4 4 1 4 4 1 3 2 4 4 0", '
            '"energy_gap": "1/244140625", "loss": 0, "potential_gap": "1/244140625", '
            '"work": "v=1 5:12:1 0 3 0 0 3 1 2 0 0 4 0"}\n'),
    "padicmech restrict --q 1 --momentum 1 --m 1 --beta 1 --prime 5 --format json":
        (0, '{"bound": "1/5", "margin": "5", "satisfied": false}\n'),
    "padicmech prob synthesize --alpha 1 --count 8 --prime 5 --out record.csv":
        (0, ""),
    "padicmech prob detect --data record.csv --mode padic --strength 4 --window 3 --prime 5":
        (0, '{"candidate": "1/152587890626", '
            '"gaps": ["1/244140625", "1/244140625", "1/6103515625"], '
            '"mode": "padic", "status": "limit", "threshold": "1/625", "window": 3}\n'),
    "padicmech prob volume --radius 1/25 --prime 5":
        (0, "1/25\n"),
    "padicmech quantum wave --momentum 3 --energy 1 --t 7 --x 14 --prime 7":
        (0, '{"im": "v=2 7:12:5 0 0 0 6 2 5 5 1 2 4 3", '
            '"modulus_sq": "v=0 7:12:1 0 0 0 0 0 0 0 0 0 0 0", '
            '"re": "v=0 7:12:1 0 0 0 5 1 3 3 6 6 1 3"}\n'),
    "padicmech quantum born --amplitudes 3/5,4/5 --format json":
        (0, '{"normalized_ok": true, "real_interpretable": true, '
            '"weights": ["9/25", "16/25"]}\n'),
    "padicmech quantum spectrum --omega 1 --level 1 --depth 3 --prime 5":
        (0, '{"energy": "v=-1 5:12:1 0 0 0 0 0 0 0 0 0 0 0", "level": 1, "witnesses": ['
            '{"energy": "v=-1 5:12:1 1 0 0 0 0 0 0 0 0 0 0", "gap_norm": "1", "index": 6}, '
            '{"energy": "v=-1 5:12:1 0 1 0 0 0 0 0 0 0 0 0", "gap_norm": "1/5", "index": 26}, '
            '{"energy": "v=-1 5:12:1 0 0 1 0 0 0 0 0 0 0 0", "gap_norm": "1/25", "index": 126}]}\n'),
    "padicmech embed --center 0 --level 0 --depth 2 --prime 5 --format csv":
        (0, EMBED_TABLE),
}


def readme_examples():
    """The README's CLI lines as argv lists, in order, comments dropped."""
    return [shlex.split(line, comments=True)
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("padicmech ")]


def test_golden_table_covers_every_readme_example():
    assert [shlex.join(argv) for argv in readme_examples()] == list(GOLDEN)


def test_readme_examples_are_byte_identical(tmp_path, capsys):
    for argv in readme_examples():
        key = shlex.join(argv)
        args = [str(tmp_path / a) if a == "record.csv" else a for a in argv[1:]]
        rc = dispatch(args)
        out = capsys.readouterr().out
        assert (rc, out) == GOLDEN[key], key
