"""Command line toolkit over the exact p-adic layers.

Every command computes with exact arithmetic and renders through a fixed
serializer, so a rerun with the same arguments is byte identical.  Values use
the canonical literals throughout: `p:K:d0 d1 ...` for Z_p, `v=<v> p:K:digits`
for Q_p, and `p:D:[c0,c1,...]` for series.  Exit codes: 0 on success, 2 when
a value leaves a certified domain, 1 for usage problems.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from padicmech.core import (
    ENUMERATION_CAP,
    Ball,
    PadicError,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    exceeds_cap,
    metric,
    monna_embed,
    parse_padic_int,
    parse_padic_number,
)
from padicmech.mechanics import (
    HamiltonianSpec,
    closed_flow_series,
    free_hamiltonian,
    hooke_hamiltonian,
    restriction_check,
    taylor_integrate,
    work_energy_audit,
)
from padicmech.prob import (
    FrequencyRecord,
    ball_volume,
    dual_limit_synthesize,
    stabilization_detect,
)
from padicmech.quantum import (
    GaussianRational,
    HilbertVector,
    interference_term,
    mixed_state_probabilities,
    oscillator_spectrum,
    plane_wave,
    schwarz_report,
)
from padicmech.series import (
    digit_dilate,
    definite_integral,
    elementary,
    evaluate,
    parse_series,
    series_combine,
    sup_norm_probe,
)


class UsageError(Exception):
    """Bad invocation: wrong flags, malformed literals, missing files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


# -- literals -----------------------------------------------------------------

def _rational(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r}") from exc


def _scalar(text, prime: int, precision: int) -> PadicNumber:
    """A Q_p value from a canonical literal or a plain rational."""
    t = str(text).strip()
    if t.startswith("v="):
        x = parse_padic_number(t)
    elif ":" in t:
        x = parse_padic_int(t).to_number()
    else:
        return PadicNumber.of(_rational(t), prime, precision)
    if x.prime != prime:
        raise UsageError(f"literal {t!r} uses p={x.prime}, command uses p={prime}")
    return x


def _split_list(text: str) -> List[str]:
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise UsageError(f"empty list {text!r}")
    return items


# -- rendering ------------------------------------------------------------------

def _csv_lines(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_record(data: dict, fmt: Optional[str]) -> str:
    if fmt == "csv":
        rows = [["key", "value"]]
        for k in sorted(data):
            v = data[k]
            rows.append([k, v if isinstance(v, str) else json.dumps(v, sort_keys=True)])
        return _csv_lines(rows)
    return json.dumps(data, sort_keys=True)


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]],
                  fmt: Optional[str]) -> str:
    if fmt == "json":
        return json.dumps({"columns": list(header), "rows": [list(r) for r in rows]},
                          sort_keys=True)
    return _csv_lines([list(header), *[list(r) for r in rows]])


# -- command handlers -------------------------------------------------------------

_ARITH_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": operator.truediv}


def _cmd_arith(args) -> str:
    op, operands = args.op, args.operands
    arity = {"metric": 2, "norm": 1, "dilate": 1, **dict.fromkeys(_ARITH_OPS, 2)}.get(op)
    if arity is None:
        raise UsageError(f"unknown arith op {op!r}")
    if len(operands) != arity:
        raise UsageError(f"{op} takes {arity} operand(s), got {len(operands)}")
    texts = [str(t).strip() for t in operands]
    integral = all(":" in t and not t.startswith("v=") for t in texts)
    if op == "dilate":
        if not integral:
            raise UsageError("dilate acts on Z_p literals")
        return str(digit_dilate(parse_padic_int(texts[0])))
    if integral and op != "div":
        xs = [parse_padic_int(t) for t in texts]
    else:
        xs = [_scalar(t, args.prime, args.precision) for t in texts]
    if op == "norm":
        return str(xs[0].norm())
    if op == "metric":
        return str(metric(xs[0], xs[1]))
    return str(_ARITH_OPS[op](*xs))


def _series_arg(text: str, prime: int, degree: int, precision: int):
    t = str(text).strip()
    if t in ("exp", "sin", "cos"):
        return elementary(t, prime, degree, precision)
    return parse_series(t)


def _cmd_series(args) -> str:
    op = args.op
    p, d, k = args.prime, args.degree, args.precision
    rest = list(args.args)
    if op == "make":
        if len(rest) != 1:
            raise UsageError("series make takes one kind: exp|sin|cos")
        return str(elementary(rest[0], p, d, k))
    if op == "derive":
        if len(rest) != 1:
            raise UsageError("series derive takes one series argument")
        return str(series_combine("derive", _series_arg(rest[0], p, d, k)))
    if op in ("add", "mul", "compose"):
        if len(rest) != 2:
            raise UsageError(f"series {op} takes two series arguments")
        f = _series_arg(rest[0], p, d, k)
        g = _series_arg(rest[1], p, d, k)
        return str(series_combine(op, f, g))
    if op == "eval":
        if len(rest) != 2:
            raise UsageError("series eval takes a series and a point")
        f = _series_arg(rest[0], p, d, k)
        return str(evaluate(f, _scalar(rest[1], f.prime, k)))
    if op == "integrate":
        if len(rest) != 3:
            raise UsageError("series integrate takes a series and two endpoints")
        f = _series_arg(rest[0], p, d, k)
        a = _scalar(rest[1], f.prime, k)
        b = _scalar(rest[2], f.prime, k)
        return str(definite_integral(f, a, b))
    if op == "probe":
        if len(rest) != 1:
            raise UsageError("series probe takes one series argument")
        f = _series_arg(rest[0], p, d, k)
        rep = sup_norm_probe(f, args.depth)
        return _render_record(
            {"value": str(rep.value), "upper_bound": str(rep.upper_bound),
             "certified": rep.certified, "depth": args.depth}, args.format)
    raise UsageError(f"unknown series op {op!r}")


def _build_system(args) -> Tuple[HamiltonianSpec, "object"]:
    from padicmech.mechanics import PhaseState

    p, k = args.prime, args.precision
    q0 = [_rational(x) for x in _split_list(args.q0)]
    p0 = [_rational(x) for x in _split_list(args.p0)]
    z0 = PhaseState(p, q0, p0, precision=k)
    if args.kind == "free":
        alphas = [_rational(x) for x in _split_list(args.alphas)]
        if len(alphas) != z0.n:
            raise UsageError("need one alpha per coordinate")
        return free_hamiltonian(p, alphas, precision=k), z0
    if args.kind in ("hooke_trig", "hooke_exp"):
        if z0.n != 1:
            raise UsageError("harmonic systems are one-coordinate")
        m, beta = _rational(args.m), _rational(args.beta)
        return hooke_hamiltonian(p, args.kind, m, beta, precision=k), z0
    raise UsageError(f"unknown system kind {args.kind!r}")


def _trajectory(args, H, z0):
    if args.method == "taylor":
        return taylor_integrate(H, z0, args.degree, precision=args.precision)
    if args.kind == "free":
        alphas = [_rational(x) for x in _split_list(args.alphas)]
        return closed_flow_series("free", z0, alpha=alphas,
                                  degree=args.degree, precision=args.precision)
    return closed_flow_series(args.kind, z0, m=_rational(args.m),
                              beta=_rational(args.beta),
                              degree=args.degree, precision=args.precision)


def _cmd_simulate(args) -> str:
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
    H, z0 = _build_system(args)
    traj = _trajectory(args, H, z0)
    step = _rational(args.step) if args.step is not None else (
        Fraction(1) if args.kind == "free" else Fraction(args.prime))
    n = z0.n
    header = ["t", *[f"q_{j + 1}" for j in range(n)],
              *[f"p_{j + 1}" for j in range(n)], "H", "P"]
    rows = []
    for i in range(args.steps):
        t = step * i
        z = traj.at(t, precision=args.precision)
        mot = PadicNumber.zero(args.prime)
        for pj in z.p:
            mot = mot + PadicNumber.of(pj, args.prime)
        row = [str(PadicNumber.of(t, args.prime, args.precision)),
               *[str(x.to_number()) for x in z.q],
               *[str(x.to_number()) for x in z.p],
               str(H.energy(z)), str(mot)]
        rows.append(row)
    return _render_table(header, rows, args.format)


def _cmd_restrict(args) -> str:
    p, k = args.prime, args.precision
    rep = restriction_check(_scalar(args.q, p, k), _scalar(args.momentum, p, k),
                            _scalar(args.m, p, k), _scalar(args.beta, p, k),
                            prime=p)
    return _render_record(
        {"satisfied": rep.satisfied, "margin": str(rep.margin),
         "bound": str(rep.bound)}, args.format)


def _cmd_audit(args) -> str:
    H, z0 = _build_system(args)
    traj = _trajectory(args, H, z0)
    t0, t1 = _rational(args.t0), _rational(args.t1)
    rep = work_energy_audit(H, traj, t0, t1, precision=args.precision)
    return _render_record(
        {"work": str(rep.work), "delta_kinetic": str(rep.delta_kinetic),
         "delta_potential": str(rep.delta_potential),
         "energy_gap": str(rep.energy_gap), "potential_gap": str(rep.potential_gap),
         "loss": rep.loss}, args.format)


def _read_record(path: str) -> FrequencyRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    pairs = []
    for i, ln in enumerate(lines):
        parts = [s.strip() for s in ln.split(",")]
        if i == 0 and parts[:2] == ["N", "n"]:
            continue
        if len(parts) != 2:
            raise UsageError(f"line {i + 1} of {path} is not `N,n`: {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise UsageError(f"non-integer counts on line {i + 1} of {path}") from exc
    if not pairs:
        raise UsageError(f"{path} holds no checkpoint rows")
    return FrequencyRecord([a for a, _ in pairs], [b for _, b in pairs])


def _cmd_prob(args) -> str:
    if args.action == "volume":
        return str(ball_volume(_rational(args.radius), args.prime))
    if args.action == "synthesize":
        rec = dual_limit_synthesize(args.prime, _rational(args.alpha), args.count)
        rows = [[str(n), str(s)] for n, s in zip(rec.checkpoints, rec.successes)]
        return _render_table(["N", "n"], rows, args.format)
    if args.action == "detect":
        if args.data is None:
            raise UsageError("prob detect needs --data with N,n rows")
        rec = _read_record(args.data)
        if args.mode == "real":
            rep = stabilization_detect(rec, "real", window=args.window,
                                       epsilon=_rational(args.epsilon))
        elif args.mode == "padic":
            rep = stabilization_detect(rec, "padic", window=args.window,
                                       prime=args.prime, strength=args.strength)
        else:
            raise UsageError(f"unknown detection mode {args.mode!r}")
        return _render_record(rep.as_dict(), args.format)
    raise UsageError(f"unknown prob action {args.action!r}")


def _amplitude(token: str) -> GaussianRational:
    if ":" in token:
        re_s, im_s = token.split(":", 1)
        return GaussianRational(_rational(re_s or "0"), _rational(im_s or "0"))
    return GaussianRational(_rational(token))


def _cmd_quantum(args) -> str:
    p, k = args.prime, args.precision
    if args.action == "wave":
        h = None if args.h is None else _rational(args.h)
        z = plane_wave(p, _rational(args.momentum), _rational(args.energy),
                       _rational(args.t), _rational(args.x), h=h,
                       degree=args.degree, precision=k)
        return _render_record(
            {"re": str(z.re), "im": str(z.im), "modulus_sq": str(z.modulus_sq())},
            args.format)
    if args.action == "born":
        amps = [_amplitude(t) for t in _split_list(args.amplitudes)]
        rep = mixed_state_probabilities(amps)
        return _render_record(rep.as_dict(), args.format)
    if args.action == "spectrum":
        h = None if args.h is None else _rational(args.h)
        rep = oscillator_spectrum(p, _rational(args.omega), args.level,
                                  h=h, depth=args.depth, precision=k)
        return _render_record(rep.as_dict(), args.format)
    if args.action == "interfere":
        return str(interference_term(p, args.degree, precision=k))
    if args.action == "schwarz":
        if args.count > ENUMERATION_CAP:
            raise UsageError(f"--count {args.count} exceeds the sample cap {ENUMERATION_CAP}")
        rng = random.Random(args.seed if args.seed is not None else 0)
        worst = Fraction(0)
        for _ in range(args.count):
            dim = args.dim
            mk = lambda: GaussianRational(
                Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
            x = HilbertVector(p, [mk() for _ in range(dim)])
            y = HilbertVector(p, [mk() for _ in range(dim)])
            rep = schwarz_report(x, y)
            if not rep.bounded:
                return _render_record({"all_bounded": False,
                                       "witness": rep.as_dict()}, args.format)
            cap = rep.norm_x * rep.norm_y
            if cap:
                worst = max(worst, rep.inner_size / cap)
        return _render_record(
            {"all_bounded": True, "samples": args.count, "dim": args.dim,
             "max_ratio": str(worst)}, args.format)
    raise UsageError(f"unknown quantum action {args.action!r}")


def _cmd_embed(args) -> str:
    center = parse_padic_int(args.center) if ":" in args.center else \
        PadicInt.from_rational(_rational(args.center), args.prime, args.precision)
    if center.prime != args.prime:
        raise UsageError(f"center uses p={center.prime}, command uses p={args.prime}")
    ball = Ball(center, args.level)
    if exceeds_cap(args.prime, args.depth - args.level, ENUMERATION_CAP):
        raise UsageError(f"p^(depth-level) = {args.prime}^{args.depth - args.level} members "
                         f"exceed the enumeration cap {ENUMERATION_CAP}")
    kk = args.k if args.k is not None else args.prime
    rows = []
    for member in ball.members(args.depth):
        img = monna_embed(member, kk)
        rows.append([str(member), str(img.value), str(img.error_bound)])
    return _render_table(["member", "value", "error_bound"], rows, args.format)


# -- parser ---------------------------------------------------------------------

def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--prime", type=int, default=5)
    common.add_argument("--precision", type=int, default=12)
    common.add_argument("--degree", type=int, default=16)
    common.add_argument("--preset", default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--seed", type=int, default=None)

    parser = _Parser(prog="padicmech",
                     description="exact p-adic arithmetic, flows, and spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("arith", parents=[common])
    sp.add_argument("op")
    sp.add_argument("operands", nargs="*")
    sp.set_defaults(handler=_cmd_arith)

    sp = sub.add_parser("series", parents=[common])
    sp.add_argument("op")
    sp.add_argument("args", nargs="*")
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(handler=_cmd_series)

    for name, handler in (("simulate", _cmd_simulate), ("audit", _cmd_audit)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--kind", default="free")
        sp.add_argument("--method", choices=("closed", "taylor"), default="closed")
        sp.add_argument("--q0", default="1")
        sp.add_argument("--p0", default="1")
        sp.add_argument("--alphas", default="1/2")
        sp.add_argument("--m", default="1")
        sp.add_argument("--beta", default="1")
        if name == "simulate":
            sp.add_argument("--steps", type=int, default=6)
            sp.add_argument("--step", default=None)
        else:
            sp.add_argument("--t0", default="0")
            sp.add_argument("--t1", default="1")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("restrict", parents=[common])
    sp.add_argument("--q", required=True)
    sp.add_argument("--momentum", required=True)
    sp.add_argument("--m", default="1")
    sp.add_argument("--beta", default="1")
    sp.set_defaults(handler=_cmd_restrict)

    sp = sub.add_parser("prob", parents=[common])
    sp.add_argument("action")
    sp.add_argument("--data", default=None)
    sp.add_argument("--mode", default="padic")
    sp.add_argument("--epsilon", default="1/1000")
    sp.add_argument("--strength", type=int, default=3)
    sp.add_argument("--window", type=int, default=3)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--count", type=int, default=8)
    sp.add_argument("--radius", default="1")
    sp.set_defaults(handler=_cmd_prob)

    sp = sub.add_parser("quantum", parents=[common])
    sp.add_argument("action")
    sp.add_argument("--momentum", default="1")
    sp.add_argument("--energy", default="1")
    sp.add_argument("--t", default="0")
    sp.add_argument("--x", default="0")
    sp.add_argument("--h", default=None)
    sp.add_argument("--amplitudes", default="3/5,4/5")
    sp.add_argument("--omega", default="1")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--count", type=int, default=100)
    sp.set_defaults(handler=_cmd_quantum)

    sp = sub.add_parser("embed", parents=[common])
    sp.add_argument("--center", default="0")
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--k", type=int, default=None)
    sp.set_defaults(handler=_cmd_embed)

    return parser


def _load_preset(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read preset {path}: {exc}") from exc
    out: Dict[str, str] = {}
    for i, ln in enumerate(lines):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"preset line {i + 1} is not key=value: {ln!r}")
        key, _, val = ln.partition("=")
        out[key.strip()] = val.strip()
    return out


def _with_preset(args, argv: List[str]) -> List[str]:
    """argv with each preset key the subcommand knows as a `--key=value`
    token right after the subcommand name, so the parser checks preset
    values like flags and explicit flags, parsed later, win."""
    tokens = [f"--{key}={val}" for key, val in _load_preset(args.preset).items()
              if hasattr(args, key)]
    i = argv.index(args.command) + 1
    return argv[:i] + tokens + argv[i:]


_PARSER: Optional[_Parser] = None  # built by the first dispatch, not at import


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _PARSER = _PARSER or build_parser()
    try:
        args = parser.parse_args(argv)
        if args.preset is not None:
            args = parser.parse_args(_with_preset(args, argv))
        text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PrimeMismatch as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PadicError as exc:
        reason = getattr(exc, "reason", None)
        tag = f" [{reason}]" if reason else ""
        print(f"domain error{tag}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    payload = text + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
