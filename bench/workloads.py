"""The three benchmark workloads: seeded operation streams plus their checks.

Every workload is a closed loop: one client issues the next operation only
after the previous one returned.  Operations come in cycles.  A cycle holds
a fixed multiset of operation families (the "deck"), shuffled by the seed,
so that every cycle carries the same mix of work and a run's figures do not
depend on which families the seed happened to draw.  Each operation is an
`Op`: `run()` calls the library and is timed, `check(result)` compares the
result with an independent reference from `oracle` and is not timed.

The library is reached through its module objects (`series.evaluate`, not a
name imported into this file), so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

from padicmech import cli, mechanics, multi, quantum, series

import oracle as O
from oracle import Approx


class Raised:
    """The result of an operation that raised instead of returning."""

    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


class Op:
    __slots__ = ("family", "label", "run", "check")

    def __init__(self, family, label, run, check):
        self.family, self.label, self.run, self.check = family, label, run, check


def checked(check, result):
    """Run a check; an unexpected exception or a library exception is a failure."""
    if isinstance(result, Raised):
        return repr(result)
    try:
        return check(result)
    except Exception as exc:  # a malformed output must count as a failed check
        return f"check could not read the result: {type(exc).__name__}: {exc}"


def cycle_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def unit_frac(rng, p, top=10**4):
    while True:
        a, b = rng.randint(1, top), rng.randint(1, 999)
        if a % p and b % p:
            return Fraction(a, b)


def padic_frac(rng, p, v, signed=True):
    x = unit_frac(rng, p) * Fraction(p) ** v
    return -x if signed and rng.random() < 0.5 else x


def zp_int(rng, p, digits=8):
    return rng.randrange(p**digits)


# ---------------------------------------------------------------- cli-mix

def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def cli_check(expect):
    """A check for (exit code, stdout, stderr) from one expectation.

    ("out", text): exit 0 and stdout == text + newline.
    ("fn", f): exit 0 and f(stdout without newline) returns None.
    ("err", code, tag): that exit code, empty stdout, tag inside stderr.
    """
    def check(res):
        code, out, err = res
        if expect[0] == "err":
            _, want, tag = expect
            if code != want or out or tag not in err:
                return f"expected exit {want} with {tag!r}, got exit {code}: {err.strip()!r}"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if expect[0] == "out":
            if out != expect[1] + "\n":
                return f"stdout {out.strip()!r} != expected {expect[1]!r}"
            return None
        return expect[1](out.rstrip("\n"))
    return check


def _fmt_args(rng):
    fmt = rng.choice((None, "csv", "json"))
    return fmt, ([] if fmt is None else ["--format", fmt])


def _text_of(rng, x, p, k):
    """A value as a CLI argument: a plain positive rational or a Q_p literal."""
    if x > 0 and rng.random() < 0.5:
        return str(x)
    return Approx.of(x, p, k).text()


def cli_arith_zp(rng, ctx):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    op = rng.choice(("add", "sub", "mul", "norm", "metric", "dilate"))
    k1, k2 = rng.randint(3, 12), rng.randint(3, 12)
    a, b = rng.randrange(p**k1), rng.randrange(p**k2)
    if rng.random() < 0.3:
        a = a * p ** rng.randint(1, 2) % p**k1
    la, lb = O.fmt_zp(p, k1, a), O.fmt_zp(p, k2, b)
    if op == "norm":
        want = "0" if a == 0 else str(Fraction(1, p ** O.vp_int(a, p)))
        return ["arith", "norm", la], ("out", want)
    if op == "dilate":
        r = sum(d * p ** (2 * j) for j, d in enumerate(O.digits(a, p, k1)))
        return ["arith", "dilate", la], ("out", O.fmt_zp(p, 2 * k1, r))
    if op == "metric":
        d = Approx.from_residue(p, a, k1) - Approx.from_residue(p, b, k2)
        return ["arith", "metric", la, lb], ("out", O.norm_text(d))
    k = min(k1, k2)
    r = {"add": a + b, "sub": a - b, "mul": a * b}[op] % p**k
    return ["arith", op, la, lb], ("out", O.fmt_zp(p, k, r))


def cli_arith_qp(rng, ctx):
    p = rng.choice((3, 5, 7, 11))
    k = rng.choice((6, 8, 12, 16))
    op = rng.choice(("add", "sub", "mul", "div", "norm", "metric"))
    x = padic_frac(rng, p, rng.randint(-3, 3))
    y = padic_frac(rng, p, rng.randint(-3, 3))
    if op in ("add", "sub", "metric") and rng.random() < 0.3:
        # near-cancellation: the result loses digits or becomes a zero to some depth
        lead = -x if op == "add" else x
        y = lead + padic_frac(rng, p, O.vp(x, p) + rng.randint(1, k + 1))
    xs = [x] if op == "norm" else [x, y]
    texts = [_text_of(rng, v, p, k) for v in xs]
    ms = [Approx.of(v, p, k) for v in xs]
    argv = ["arith", op, *texts, "--prime", str(p), "--precision", str(k)]
    if op == "norm":
        return argv, ("out", O.norm_text(ms[0]))
    if op == "metric":
        return argv, ("out", O.norm_text(ms[0] - ms[1]))
    a, b = ms
    out = {"add": lambda: a + b, "sub": lambda: a - b,
           "mul": lambda: a * b, "div": lambda: a / b}[op]()
    return argv, ("out", out.text())


def _elem_text(kind, p, d, k):
    return O.series_literal(p, [Approx.of(c, p, k).text()
                                for c in O.elementary_coeffs(kind, d)])


def cli_series_make(rng, ctx):
    kind = rng.choice(("exp", "sin", "cos"))
    p = rng.choice((2, 3, 5, 7, 11, 13))
    d, k = rng.randint(2, 16), rng.choice((6, 8, 12))
    argv = ["series", "make", kind, "--prime", str(p), "--degree", str(d), "--precision", str(k)]
    return argv, ("out", _elem_text(kind, p, d, k))


def cli_series_eval(rng, ctx):
    kind = rng.choice(("exp", "sin", "cos"))
    p = rng.choice((2, 3, 5, 7, 11, 13))
    d, k = rng.randint(4, 16), rng.choice((8, 12))
    x = padic_frac(rng, p, rng.randint(2 if p == 2 else 1, 3))
    coeffs = [Approx.of(c, p, k) for c in O.elementary_coeffs(kind, d)]
    want = O.horner(coeffs, Approx.of(x, p, k)).text()
    argv = ["series", "eval", kind, _text_of(rng, x, p, k), "--prime", str(p),
            "--degree", str(d), "--precision", str(k)]
    return argv, ("out", want)


def mul_model(f, g, d):
    """The library's truncated series product, replayed on `Approx` coefficients."""
    out = [Approx.zero(f[0].p)] * (d + 1)
    for i, a in enumerate(f[: d + 1]):
        if a.is_exact_zero:
            continue
        for j, b in enumerate(g[: d + 1 - i]):
            if not b.is_exact_zero:
                out[i + j] = out[i + j] + a * b
    return out


def compose_model(outer, inner, d):
    """The library's Horner composition, replayed on `Approx` coefficients."""
    result = [Approx.zero(outer[0].p)] * (d + 1)
    result[0] = result[0] + outer[-1]
    for n in range(len(outer) - 2, -1, -1):
        result = mul_model(result, inner, d)
        result[0] = result[0] + outer[n]
    return result


def cli_series_compose(rng, ctx):
    kind = rng.choice(("exp", "sin", "cos"))
    p = rng.choice((3, 5, 7, 11, 13))
    d = rng.choice((4, 6, 8, 10, 12, 16))
    outer = [Approx.of(c, p, 12) for c in O.elementary_coeffs(kind, d)]
    inner = [Approx.of(c, p, 12) for c in O.elementary_coeffs("sin", d)]
    want = O.series_literal(p, [c.text() for c in compose_model(outer, inner, d)])
    return ["series", "compose", kind, "sin", "--prime", str(p), "--degree", str(d)], ("out", want)


def cli_series_probe(rng, ctx):
    p = rng.choice((3, 5, 7))
    deg = rng.randint(2, 8)
    texts, ints, kmin = [], [], None
    for i in range(deg + 1):
        if rng.random() < 0.2 and 0 < i < deg:
            texts.append(f"v=0 {p}:1:0")
            ints.append(0)
            continue
        v, kc = rng.randint(0, 2), rng.randint(6, 10)
        u = rng.randrange(1, p**kc)
        while u % p == 0:
            u = rng.randrange(1, p**kc)
        texts.append(f"v={v} {O.fmt_zp(p, kc, u)}")
        ints.append(u * p**v)
        kmin = v + kc if kmin is None else min(kmin, v + kc)
    depth = rng.choice([t for t in (1, 2, 3) if p**t <= 343])
    value, upper, certified = O.sup_norm(ints, p, kmin, depth)
    fmt, fargs = _fmt_args(rng)
    want = O.render_record({"value": str(value), "upper_bound": str(upper),
                            "certified": certified, "depth": depth}, fmt)
    return ["series", "probe", O.series_literal(p, texts), "--depth", str(depth), *fargs], ("out", want)


def _flow_setup(rng, kind):
    """Random initial data; returns (argv options, exact energy, q0, p0, step)."""
    p = rng.choice((5, 7, 11, 13))
    if kind == "free":
        n = rng.choice((1, 2))
        q0 = [padic_frac(rng, p, rng.randint(0, 1)) for _ in range(n)]
        p0 = [padic_frac(rng, p, rng.randint(0, 1)) for _ in range(n)]
        al = [padic_frac(rng, p, 0) for _ in range(n)]
        energy = sum(a * x * x for a, x in zip(al, p0))
        opts = [f"--alphas={','.join(map(str, al))}"]
        step = Fraction(1)
    else:
        q0, p0 = [padic_frac(rng, p, rng.randint(0, 1))], [padic_frac(rng, p, rng.randint(0, 1))]
        m, beta = padic_frac(rng, p, 0), padic_frac(rng, p, 0)
        sign = 1 if kind == "hooke_trig" else -1
        energy = p0[0] ** 2 / (2 * m) + sign * m * beta**2 * q0[0] ** 2 / 2
        opts = [f"--m={m}", f"--beta={beta}"]
        step = Fraction(p)
    opts += [f"--q0={','.join(map(str, q0))}", f"--p0={','.join(map(str, p0))}", "--prime", str(p)]
    return opts, energy, q0, p0, step


def cli_simulate(method):
    def gen(rng, ctx):
        kind = rng.choice(("hooke_trig", "hooke_exp", "free"))
        opts, energy, q0, p0, step = _flow_setup(rng, kind)
        if method == "taylor":  # the Taylor solver certifies only |t| <= 1/p
            step = Fraction(int(opts[opts.index("--prime") + 1]))
            opts.append(f"--step={step}")
        steps = rng.randint(2, 6)
        fmt, fargs = _fmt_args(rng)
        n = len(q0)
        argv = ["simulate", "--kind", kind, "--method", method, *opts,
                "--steps", str(steps), "--degree", "16", *fargs]

        def check(text):
            header, rows = O.parse_table(text, fmt)
            want_header = ["t", *[f"q_{j + 1}" for j in range(n)],
                           *[f"p_{j + 1}" for j in range(n)], "H", "P"]
            if header != want_header or len(rows) != steps:
                return f"table shape {header} x {len(rows)}"
            for i, row in enumerate(rows):
                if not O.agrees(O.parse_qp(row[0]), step * i):
                    return f"row {i}: t = {row[0]} is not {step * i}"
                if not O.agrees(O.parse_qp(row[-2]), energy):
                    return f"row {i}: energy {row[-2]} differs from the initial {energy}"
            for j in range(n):
                if not (O.agrees(O.parse_qp(rows[0][1 + j]), q0[j])
                        and O.agrees(O.parse_qp(rows[0][1 + n + j]), p0[j])):
                    return "row 0 is not the initial state"
            return None
        return argv, ("fn", check)
    return gen


def cli_audit(rng, ctx):
    kind = rng.choice(("hooke_trig", "hooke_exp"))
    opts, _, _, _, _ = _flow_setup(rng, kind)
    p = int(opts[opts.index("--prime") + 1])
    t1 = p * unit_frac(rng, p, 50)
    d = rng.choice((16, 24))
    method = rng.choice(("closed", "taylor"))
    fmt, fargs = _fmt_args(rng)
    argv = ["audit", "--kind", kind, "--method", method, *opts, f"--t1={t1}",
            "--degree", str(d), *fargs]

    def check(text):
        rec = O.parse_record(text, fmt)
        loss = rec["loss"]
        tol = Fraction(1, p ** (12 - loss))
        if not isinstance(loss, int) or loss < 0:
            return f"bad loss {loss!r}"
        for key in ("energy_gap", "potential_gap"):
            if Fraction(rec[key]) > tol:
                return f"{key} {rec[key]} exceeds p^-(K-loss) = {tol}"
        return None
    return argv, ("fn", check)


def cli_restrict(rng, ctx):
    p = rng.choice((2, 3, 5, 7))
    vals = [padic_frac(rng, p, rng.randint(-2, 2)) for _ in range(4)]
    if rng.random() < 0.2:
        vals[rng.randint(0, 1)] = Fraction(0)
    q, mom, m, beta = vals
    r = Fraction(1, 4) if p == 2 else Fraction(1, p)
    bound = O.norm(m, p) * O.norm(beta, p) * r
    lhs = O.norm(q, p) * O.norm(mom, p)
    fmt, fargs = _fmt_args(rng)
    texts = ["0" if v == 0 else _text_of(rng, v, p, 12) for v in vals]
    argv = ["restrict", f"--q={texts[0]}", f"--momentum={texts[1]}", f"--m={texts[2]}",
            f"--beta={texts[3]}", "--prime", str(p), *fargs]
    want = O.render_record({"satisfied": lhs <= bound, "margin": str(lhs / bound),
                            "bound": str(bound)}, fmt)
    return argv, ("out", want)


def _synth(p, alpha, count):
    if alpha == 0:
        return [p ** (2 * j) + 1 for j in range(1, count + 1)], [p**j for j in range(1, count + 1)]
    a, b = alpha.numerator, alpha.denominator
    return [b + p ** (2 * j) for j in range(1, count + 1)], [a] * count


def _alpha(rng, p):
    if rng.random() < 0.2:
        return Fraction(0)
    while True:
        b = rng.randint(1, 50)
        a = rng.randint(1, b + p * p)
        if a % p and b % p:
            return Fraction(a, b)


def cli_prob_synthesize(rng, ctx):
    p = rng.choice((3, 5, 7))
    alpha = _alpha(rng, p)
    # alpha = 0 with two checkpoints trips the library's own self-check (an
    # AssertionError); that defect is pinned in test_checks.py, not timed here
    count = rng.randint(3 if alpha == 0 else 2, 10)
    ns, ks = _synth(p, alpha, count)
    fmt, fargs = _fmt_args(rng)
    want = O.render_table(["N", "n"], [[str(a), str(b)] for a, b in zip(ns, ks)], fmt)
    argv = ["prob", "synthesize", f"--alpha={alpha}", "--count", str(count),
            "--prime", str(p), *fargs]
    return argv, ("out", want)


def cli_prob_detect(rng, ctx):
    path, p, ns, ks = rng.choice(ctx["records"])
    freqs = [Fraction(k, n) for n, k in zip(ns, ks)]
    window = rng.randint(2, len(ns))
    tail = freqs[-window:]
    if rng.random() < 0.5:
        s = rng.randint(1, 4)
        threshold = Fraction(1, p**s)
        gaps = [O.norm(tail[i] - tail[j], p) for i in range(window) for j in range(i + 1, window)]
        ok = all(g <= threshold for g in gaps)
        mode_args = ["--mode", "padic", "--strength", str(s), "--prime", str(p)]
        mode = "padic"
    else:
        threshold = Fraction(1, rng.choice((10, 1000, 10**6)))
        gaps = [abs(tail[i] - tail[j]) for i in range(window) for j in range(i + 1, window)]
        ok = all(g < threshold for g in gaps)
        mode_args = ["--mode", "real", f"--epsilon={threshold}"]
        mode = "real"
    fmt, fargs = _fmt_args(rng)
    want = O.render_record({"mode": mode, "window": window, "threshold": str(threshold),
                            "status": "limit" if ok else "fluctuating",
                            "candidate": str(tail[-1]) if ok else None,
                            "gaps": [str(g) for g in gaps]}, fmt)
    argv = ["prob", "detect", "--data", path, *mode_args, "--window", str(window), *fargs]
    return argv, ("out", want)


def cli_prob_volume(rng, ctx):
    p = rng.choice((2, 3, 5, 7))
    r = Fraction(1, p ** rng.randint(0, 6))
    return ["prob", "volume", f"--radius={r}", "--prime", str(p)], ("out", str(r))


def _wave_parts(theta, d: int):
    theta = Fraction(theta)
    c = sum((-1) ** (n // 2) * theta**n / math.factorial(n) for n in range(0, d + 1, 2))
    s = sum((-1) ** (n // 2) * theta**n / math.factorial(n) for n in range(1, d + 1, 2))
    return c, s


def _modulus_one(m: O.Num, p: int, digits: int = 8) -> bool:
    """|m - 1|_p <= p^-digits, decided from the digits m claims."""
    return (not m.is_zero and m.v == 0 and m.rel >= digits
            and (m.unit - 1) % p**digits == 0)


def cli_quantum_wave(rng, ctx):
    p = rng.choice((3, 7, 11, 19))
    d = rng.choice((12, 14, 16) if p == 3 else (10, 12, 16))
    mom, en = padic_frac(rng, p, 0, signed=False), padic_frac(rng, p, 0, signed=False)
    t, x = zp_int(rng, p, 6), zp_int(rng, p, 6)
    c, s = _wave_parts(p * (mom * x - en * t), d)
    fmt, fargs = _fmt_args(rng)
    argv = ["quantum", "wave", f"--momentum={mom}", f"--energy={en}", "--t", str(t),
            "--x", str(x), "--prime", str(p), "--degree", str(d), *fargs]

    def check(text):
        rec = O.parse_record(text, fmt)
        if not O.agrees(O.parse_qp(rec["re"]), c) or not O.agrees(O.parse_qp(rec["im"]), s):
            return "wave value differs from the partial sums"
        if not _modulus_one(O.parse_qp(rec["modulus_sq"]), p):
            return f"modulus {rec['modulus_sq']} is not 1 mod p^8"
        return None
    return argv, ("fn", check)


def _sphere_point(rng, dim):
    """Rational (dim = 2, 3) or Gaussian-rational (dim = 2) unit vector."""
    if dim == 3:
        u, v = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        n = u * u + v * v + 1
        return [(2 * u / n, Fraction(0)), (2 * v / n, Fraction(0)), ((u * u + v * v - 1) / n, Fraction(0))]
    tr, ti = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(0)
    if rng.random() < 0.4:
        ti = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if tr == 0 and ti == 1:  # t = i makes 1 + t^2 vanish
            ti = Fraction(2)
    # z1 = (1 - t^2)/(1 + t^2), z2 = 2t/(1 + t^2) over the Gaussian rationals
    t2 = (tr * tr - ti * ti, 2 * tr * ti)
    den = (1 + t2[0], t2[1])
    dd = den[0] ** 2 + den[1] ** 2

    def div(a):
        return ((a[0] * den[0] + a[1] * den[1]) / dd, (a[1] * den[0] - a[0] * den[1]) / dd)
    return [div((1 - t2[0], -t2[1])), div((2 * tr, 2 * ti))]


def cli_quantum_born(rng, ctx):
    amps = _sphere_point(rng, rng.choice((2, 3)))
    toks = [str(re) if im == 0 else f"{re}:{im}" for re, im in amps]
    weights = [(re * re - im * im, 2 * re * im) for re, im in amps]
    if sum(w[0] for w in weights) != 1 or sum(w[1] for w in weights) != 0:
        raise AssertionError("generator produced an unnormalized state")
    realish = all(w[1] == 0 and 0 <= w[0] <= 1 for w in weights)
    fmt, fargs = _fmt_args(rng)
    want = O.render_record({"weights": [O.gauss_text(*w) for w in weights],
                            "normalized_ok": True, "real_interpretable": realish}, fmt)
    return ["quantum", "born", f"--amplitudes={','.join(toks)}", *fargs], ("out", want)


def cli_quantum_spectrum(rng, ctx):
    p = rng.choice((3, 5, 7))
    omega = padic_frac(rng, p, rng.randint(-1, 1), signed=False)
    level, depth = rng.randint(0, 20), rng.randint(1, 6)
    step = Approx.of(Fraction(1, p), p, 12) * Approx.of(omega, p, 12)
    energy = step * Approx.of(level, p, step.rel)
    wits = []
    for k in range(1, depth + 1):
        idx = level + p**k
        e_idx = step * Approx.of(idx, p, step.rel)
        wits.append({"index": idx, "energy": e_idx.text(), "gap_norm": O.norm_text(e_idx - energy)})
    fmt, fargs = _fmt_args(rng)
    want = O.render_record({"level": level, "energy": energy.text(), "witnesses": wits}, fmt)
    argv = ["quantum", "spectrum", f"--omega={omega}", "--level", str(level),
            "--depth", str(depth), "--prime", str(p), *fargs]
    return argv, ("out", want)


def cli_quantum_interfere(rng, ctx):
    p = rng.choice((3, 5, 7, 11, 13))
    d, k = rng.randint(2, 16), rng.choice((8, 12))
    want = O.series_literal(p, [Approx.of(c, p, k).text() for c in O.interference_coeffs(d)])
    return ["quantum", "interfere", "--prime", str(p), "--degree", str(d),
            "--precision", str(k)], ("out", want)


def cli_quantum_schwarz(rng, ctx):
    p = rng.choice((2, 3, 5, 7))
    count, dim, seed = rng.choice((10, 20, 40)), rng.randint(2, 4), rng.randint(0, 10**6)
    gen = random.Random(seed)

    def mk():
        a, b = gen.randint(-50, 50), gen.randint(1, 30)
        c, d = gen.randint(-50, 50), gen.randint(1, 30)
        return Fraction(a, b), Fraction(c, d)

    def size(z):
        return max(O.norm(z[0], p), O.norm(z[1], p))
    worst = Fraction(0)
    for _ in range(count):
        x = [mk() for _ in range(dim)]
        y = [mk() for _ in range(dim)]
        re = sum(a[0] * b[0] - a[1] * b[1] for a, b in zip(x, y))
        im = sum(a[0] * b[1] + a[1] * b[0] for a, b in zip(x, y))
        cap = max(size(z) for z in x) * max(size(z) for z in y)
        if cap:
            worst = max(worst, size((re, im)) / cap)
    fmt, fargs = _fmt_args(rng)
    want = O.render_record({"all_bounded": True, "samples": count, "dim": dim,
                            "max_ratio": str(worst)}, fmt)
    argv = ["quantum", "schwarz", "--count", str(count), "--dim", str(dim), "--seed", str(seed),
            "--prime", str(p), *fargs]
    return argv, ("out", want)


def cli_embed(rng, ctx):
    p = rng.choice((2, 3, 5))
    level = rng.randint(0, 3)
    span = rng.choice([s for s in (0, 1, 2, 3) if p**s <= 27])
    depth = max(level + span, 1)
    if rng.random() < 0.5:
        kc, c = 12, rng.randint(0, 10**5)
        ctext = str(c)
    else:
        kc = rng.randint(depth, 12)
        c = rng.randrange(p**kc)
        ctext = O.fmt_zp(p, kc, c)
    kk = rng.choice((None, p + 1, 10))
    k = p if kk is None else kk
    base = c % p**level
    rows = []
    for h in range(p ** (depth - level)):
        r = base + h * p**level
        ds = O.digits(r, p, depth)
        value = sum(Fraction(dg, k ** (j + 1)) for j, dg in enumerate(ds))
        rows.append([O.fmt_zp(p, depth, r), str(value), str(Fraction(p - 1, (k - 1) * k**depth))])
    fmt, fargs = _fmt_args(rng)
    argv = ["embed", "--center", ctext, "--level", str(level), "--depth", str(depth),
            "--prime", str(p), *([] if kk is None else ["--k", str(kk)]), *fargs]
    return argv, ("out", O.render_table(["member", "value", "error_bound"], rows, fmt))


def cli_invalid(rng, ctx):
    """A command the CLI must refuse: (argv, ("err", exit code, stderr tag))."""
    p = rng.choice((3, 5, 7))
    case = rng.randrange(10)
    if case == 0:
        return (["series", "eval", rng.choice(("exp", "sin", "cos")), "1", "--prime", str(p)],
                ("err", 2, "[series-radius]"))
    if case == 1:
        return (["quantum", "wave", "--prime", str(rng.choice((5, 13, 17)))],
                ("err", 2, "no unramified extension"))
    if case == 2:
        return ["arith", "div", str(unit_frac(rng, p)), "0", "--prime", str(p)], ("err", 1, "division by zero")
    if case == 3:
        return (["arith", "add", O.fmt_zp(3, 4, rng.randrange(81)), O.fmt_zp(5, 3, rng.randrange(125))],
                ("err", 1, "p=3 vs p=5"))
    if case == 4:
        return ["prob", "volume", f"--radius=2/{p * p}", "--prime", str(p)], ("err", 1, "is not a power")
    if case == 5:
        return ["series", "probe", "exp", "--prime", str(p)], ("err", 1, "defined for polynomials")
    if case == 6:
        return ["quantum", "born", "--amplitudes=1/2,1/2"], ("err", 2, "weights sum to")
    if case == 7:
        return (["simulate", "--kind", "hooke_trig", "--prime", str(p), "--step", "1", "--steps", "3"],
                ("err", 2, "[flow-window]"))
    if case == 8:
        return ["series", "compose", "sin", "exp", "--prime", str(p)], ("err", 2, "[series-radius]")
    return ["series", "make", "exp", "--format", "xml"], ("err", 1, "invalid choice")


CLI_DECK = (
    [("arith-zp", cli_arith_zp)] * 4 + [("arith-qp", cli_arith_qp)] * 4
    + [("series-make", cli_series_make)] * 2 + [("series-eval", cli_series_eval)] * 3
    + [("series-compose", cli_series_compose)] + [("series-probe", cli_series_probe)] * 2
    + [("simulate-closed", cli_simulate("closed"))] * 2
    + [("simulate-taylor", cli_simulate("taylor"))] + [("audit", cli_audit)]
    + [("restrict", cli_restrict)] * 2 + [("prob-synthesize", cli_prob_synthesize)] * 2
    + [("prob-detect", cli_prob_detect)] * 2 + [("prob-volume", cli_prob_volume)]
    + [("quantum-wave", cli_quantum_wave)] + [("quantum-born", cli_quantum_born)] * 2
    + [("quantum-spectrum", cli_quantum_spectrum)] * 2
    + [("quantum-interfere", cli_quantum_interfere)] + [("quantum-schwarz", cli_quantum_schwarz)]
    + [("embed", cli_embed)] * 2 + [("invalid", cli_invalid)] * 4
)
CLI_REPEAT_SHARE = 0.25  # chance that a valid slot reissues an earlier argv of its family
CLI_HISTORY = 64  # repeats draw from this many latest argv per family, so memory stays flat


class CliMix:
    """Shell-user traffic: `cli.dispatch(argv)` in process, stdout captured."""

    name = "cli-mix"
    import_module = "padicmech.cli"
    tail_percentile = 99
    trace_cycles = 10

    def setup(self, seed, workdir):
        rng = random.Random(f"cli-mix-records:{seed}")
        records = []
        for i in range(6):
            p = rng.choice((3, 5, 7))
            ns, ks = _synth(p, _alpha(rng, p), rng.randint(4, 10))
            path = os.path.join(workdir, f"record{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                if rng.random() < 0.5:
                    fh.write("N,n\n")
                fh.writelines(f"{a},{b}\n" for a, b in zip(ns, ks))
            records.append((path, p, ns, ks))
        return {"records": records, "history": {}, "seed": seed}

    def cycle(self, ctx, index):
        rng = cycle_rng(ctx["seed"], self.name, index)
        deck = list(CLI_DECK)
        rng.shuffle(deck)
        ops = []
        for family, gen in deck:
            seen = ctx["history"].setdefault(family, [])
            if family != "invalid" and seen and rng.random() < CLI_REPEAT_SHARE:
                argv, expect = rng.choice(seen)
                label = "repeat " + family
            else:
                argv, expect = gen(rng, ctx)
                seen.append((argv, expect))
                del seen[:-CLI_HISTORY]
                label = family
            ops.append(Op(label, argv, (lambda a=argv: cli_call(a)), cli_check(expect)))
        return ops


# ---------------------------------------------------------------- build

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19)
COMPOSE_PRIMES = ODD_PRIMES + (23, 29, 31)  # 3 kinds x 10 primes x 17 precisions per degree
# precision of the elementary series behind compose, tail and wave, drawn per
# operation as a user varies --precision; centred on the library's default
# of 12, so that the mix costs what it costs at the default
BUILD_PRECISIONS = range(4, 21)
TAIL_KINDS = {2: ("exp", "sin"), 3: ("exp", "sin", "cos")}
K = 12  # the library's default precision, used where build passes none


def fresh(ctx, tag, draw):
    """draw() until its inputs are new in this run, so no operation repeats."""
    for _ in range(1000):
        inputs = draw()
        if (tag, inputs) not in ctx["used"]:
            ctx["used"].add((tag, inputs))
            return inputs
    raise RuntimeError(f"{tag}: no unused inputs left")


def elementary_model(kind, p, d, prec):
    return [Approx.of(c, p, prec) for c in O.elementary_coeffs(kind, d)]


def compose_exact(kind, d, _cache={}):
    key = (kind, d)
    if key not in _cache:
        outer, inner = O.elementary_coeffs(kind, d), O.elementary_coeffs("sin", d)
        res = [outer[-1]] + [Fraction(0)] * d
        for n in range(d - 1, -1, -1):
            res = O.trunc_mul(res, inner, d)
            res[0] += outer[n]
        _cache[key] = res
    return _cache[key]


def product_exact(kinds, d, _cache={}):
    key = (kinds, d)
    if key not in _cache:
        res = O.elementary_coeffs(kinds[0], d)
        for kd in kinds[1:]:
            res = O.trunc_mul(res, O.elementary_coeffs(kd, d), d)
        _cache[key] = res
    return _cache[key]


def check_number(got, exact, model, label):
    """`got` equals the exact rational to every digit it claims, and claims
    exactly the digits the precision rules give (`model`, an `Approx`), so
    a result that drops precision fails as surely as one with a wrong digit."""
    g = O.from_library(got)
    if not O.agrees(g, exact):
        return f"{label} = {got} differs from {exact}"
    if g.key() != model.num().key():
        return f"{label} = {got} claims other digits than the precision rules give: {model.text()}"
    return None


def check_series_values(got, exact, model, label):
    if len(got.coeffs) != len(exact):
        return f"{label}: degree {got.degree}, expected {len(exact) - 1}"
    for n, (c, e, m) in enumerate(zip(got.coeffs, exact, model)):
        err = check_number(c, e, m, f"{label} coefficient {n}")
        if err:
            return err
    return None


def build_compose(rng, ctx, d):
    kind, p, prec = fresh(ctx, ("compose", d), lambda: (
        rng.choice(("exp", "sin", "cos")), rng.choice(COMPOSE_PRIMES), rng.choice(BUILD_PRECISIONS)))

    def run():
        return series.elementary(kind, p, d, prec).compose(series.elementary("sin", p, d, prec))

    def check(res):
        model = compose_model(elementary_model(kind, p, d, prec),
                              elementary_model("sin", p, d, prec), d)
        return check_series_values(res, compose_exact(kind, d), model, "compose")
    return Op("compose", f"{kind}.compose(sin) p={p} D={d} precision={prec}", run, check)


def build_tail(rng, ctx, k, d):
    kinds = TAIL_KINDS[k]

    def draw():
        p = rng.choice(ODD_PRIMES)
        return p, rng.choice(BUILD_PRECISIONS), padic_frac(rng, p, rng.randint(1, 2))
    p, prec, x = fresh(ctx, ("tail", k, d), draw)

    def run():
        prod = series.elementary(kinds[0], p, d, prec)
        for kd in kinds[1:]:
            prod = prod * series.elementary(kd, p, d, prec)
        return series.evaluate(prod, x, with_tail=True)

    def check(res):
        val, tail = res
        coeffs = elementary_model(kinds[0], p, d, prec)
        for kd in kinds[1:]:
            coeffs = mul_model(coeffs, elementary_model(kd, p, d, prec), d)
        model = O.horner(coeffs, Approx.of(x, p, K))
        err = check_number(val, O.poly_value(product_exact(kinds, d), x), model, "value")
        if err:
            return err
        want_tail = O.tail_exponent(d, O.vp(x, p), p)
        if tail != want_tail:
            return f"tail exponent {tail}, expected {want_tail}"
        return None
    return Op("tail", f"prod{kinds} p={p} D={d} precision={prec} x={x}", run, check)


CUBIC = ((3, 0), (0, 3), (1, 1))


def taylor_exact(alphas, terms, q0, p0, d):
    """Taylor coefficients of qdot = 2 alpha p, pdot = -dV/dq, exactly.

    The gradient of a cubic V is at most quadratic in q, so coefficient k of
    each gradient monomial is one convolution of coefficients already known.
    """
    n = len(q0)
    grads = []
    for j in range(n):
        g = {}
        for expo, c in terms.items():
            if expo[j]:
                e = list(expo)
                e[j] -= 1
                g[tuple(e)] = g.get(tuple(e), 0) + c * expo[j]
        grads.append(g)
    qc = [[Fraction(x)] for x in q0]
    pc = [[Fraction(x)] for x in p0]
    for k in range(d):
        gk = []
        for j in range(n):
            acc = Fraction(0)
            for expo, c in grads[j].items():
                vars_ = [i for i, e in enumerate(expo) for _ in range(e)]
                if not vars_:
                    term = Fraction(1) if k == 0 else Fraction(0)
                elif len(vars_) == 1:
                    term = qc[vars_[0]][k]
                else:
                    a, b = qc[vars_[0]], qc[vars_[1]]
                    term = sum(a[i] * b[k - i] for i in range(k + 1))
                acc += c * term
            gk.append(acc)
        for j in range(n):
            pc[j].append(-gk[j] / (k + 1))
            qc[j].append(2 * alphas[j] * pc[j][k] / (k + 1))
    return qc, pc


def product_coeff(c, factors, k):
    """Coefficient k of ((c * f1) * f2) * ..., grouped as MultiPoly.substitute
    groups it; only coefficients up to k of each factor enter."""
    if not factors:
        return c if k == 0 else Approx.zero(c.p)
    term = [c]
    for f in factors[:-1]:
        term = mul_model(term, f, k)
    acc = Approx.zero(c.p)
    for i, a in enumerate(term[: k + 1]):
        if not a.is_exact_zero:
            acc = acc + a * factors[-1][k - i]
    return acc


def taylor_model(p, alphas, terms, q0, p0, d):
    """taylor_integrate's coefficients replayed on `Approx`: at step k the
    gradient of V is substituted into the q polynomials known so far."""
    qc = [[Approx.from_residue(p, int(x), K)] for x in q0]
    pc = [[Approx.from_residue(p, int(x), K)] for x in p0]
    al = [Approx.of(a, p, K) for a in alphas]
    grads = []
    for j in range(len(q0)):
        g = {}
        for expo, c in terms.items():
            if expo[j]:
                dropped = expo[:j] + (expo[j] - 1,) + expo[j + 1:]
                g[dropped] = Approx.of(c, p, K) * Approx.of(expo[j], p, K)
        grads.append(g)
    two = Approx.of(2, p, K)
    for k in range(d):
        inv = Approx.of(Fraction(1, k + 1), p, K)
        qs = [list(q) for q in qc]
        for j, g in enumerate(grads):
            gk = Approx.zero(p)
            for expo, c in g.items():
                gk = gk + product_coeff(c, [qs[i] for i, e in enumerate(expo) for _ in range(e)], k)
            pc[j].append(-gk * inv)
            qc[j].append(two * al[j] * pc[j][k] * inv)
    return qc, pc


def build_taylor(rng, ctx, d):
    def draw():
        p = rng.choice(ODD_PRIMES[:5])
        return (p, tuple(padic_frac(rng, p, 0) for _ in CUBIC),
                tuple(padic_frac(rng, p, 0) for _ in range(2)),
                tuple(Fraction(zp_int(rng, p)) for _ in range(2)),
                tuple(Fraction(zp_int(rng, p)) for _ in range(2)))
    p, coeffs, alphas, q0, p0 = fresh(ctx, ("taylor", d), draw)
    terms = dict(zip(CUBIC, coeffs))

    def run():
        V = multi.MultiPoly(p, 2, terms)
        H = mechanics.HamiltonianSpec(p, alphas, V)
        return mechanics.taylor_integrate(H, mechanics.PhaseState(p, q0, p0), d)

    def check(traj):
        qc, pc = taylor_exact(alphas, terms, q0, p0, d)
        qm, pm = taylor_model(p, alphas, terms, q0, p0, d)
        for j in range(2):
            err = (check_series_values(traj.q[j], qc[j], qm[j], f"q{j + 1}")
                   or check_series_values(traj.p[j], pc[j], pm[j], f"p{j + 1}"))
            if err:
                return err
        return None
    return Op("taylor", f"cubic p={p} D={d}", run, check)


def hooke_exact(kind, q0, p0, m, beta, d):
    """Exact Taylor coefficients of the harmonic flow q(t), p(t)."""
    s = 1 if kind == "hooke_exp" else -1
    qc, pc = [], []
    for k in range(d + 1):
        f = Fraction(1, math.factorial(k))
        if k % 2 == 0:
            sg = s ** (k // 2)
            qc.append(q0 * beta**k * f * sg)
            pc.append(p0 * beta**k * f * sg)
        else:
            sg = s ** ((k - 1) // 2)
            qc.append(p0 / m * beta ** (k - 1) * f * sg)
            pc.append(s * q0 * m * beta ** (k + 1) * f * sg)
    return qc, pc


def audit_exact(kind, q0, p0, m, beta, t1, d):
    """Work, kinetic and potential change of the truncated flow, exactly."""
    qc, pc = hooke_exact(kind, q0, p0, m, beta, d)
    c_v = (1 if kind == "hooke_trig" else -1) * m * beta**2 / 2
    g = O.trunc_mul([-2 * c_v * q for q in qc], [n * qc[n] for n in range(1, d + 1)], d - 1)
    work = sum(c * t1 ** (n + 1) / (n + 1) for n, c in enumerate(g))
    kin = O.trunc_mul(pc, pc, d)
    pot = O.trunc_mul(qc, qc, d)
    return (work, (O.poly_value(kin, t1) - kin[0]) / (2 * m),
            c_v * (O.poly_value(pot, t1) - pot[0]))


def audit_model(kind, p, q0, p0, m, beta, t1, d):
    """closed_flow_series and work_energy_audit replayed on `Approx`:
    (work, delta_kinetic, delta_potential, energy gap, potential gap, loss)."""
    def A(x):
        return Approx.of(x, p, K)
    m_, b_ = A(m), A(beta)
    q0_, p0_ = Approx.from_residue(p, int(q0), K), Approx.from_residue(p, int(p0), K)
    sign = 1 if kind == "hooke_exp" else -1
    inv_m = A(1) / m_
    qc, pc, pows = [], [], [A(1)]  # pows[k] = beta^k
    for k in range(d + 1):
        inv_f = A(Fraction(1, math.factorial(k)))
        s = 1 if sign == 1 else (-1) ** (k // 2)
        pows.append(pows[-1] * b_)
        bpow = pows[k - k % 2]
        if k % 2 == 0:
            qc.append(q0_ * bpow * inv_f * A(s))
            pc.append(p0_ * bpow * inv_f * A(s))
        else:
            qc.append(p0_ * inv_m * bpow * inv_f * A(s))
            pc.append(q0_ * m_ * bpow * b_ * b_ * inv_f * A(sign * s))
    c_v = A(-sign) * A(Fraction(1, 2)) * m_ * b_ * b_
    alpha = A(Fraction(1, 2)) / m_
    force = [-(c_v * A(2)) * q for q in qc]
    g = mul_model(force, [A(n) * qc[n] for n in range(1, d + 1)], d - 1)
    prim = [Approx.zero(p)] + [c / Approx.of(n + 1, p, K if c.is_zero else c.rel)
                               for n, c in enumerate(g)]
    t, t0 = A(t1), A(0)
    work = Approx.zero(p) + (O.horner(prim, t) - O.horner(prim, t0))
    kin = [alpha * c for c in mul_model(pc, pc, d)]
    pot = mul_model([c_v * q for q in qc], qc, d)
    d_t = O.horner(kin, t) - O.horner(kin, t0)
    d_v = O.horner(pot, t) - O.horner(pot, t0)
    known = min((x.a for x in (work, d_t, d_v) if x.a is not None), default=None)
    loss = 0 if known is None else max(0, K - known)
    return work, d_t, d_v, (work - d_t).norm_bound(), (work + d_v).norm_bound(), loss


def build_audit(rng, ctx, d):
    def draw():
        p = rng.choice((5, 7, 11, 13))
        return (rng.choice(("hooke_trig", "hooke_exp")), p,
                Fraction(zp_int(rng, p)), Fraction(zp_int(rng, p)),
                padic_frac(rng, p, 0), padic_frac(rng, p, 0), p * unit_frac(rng, p, 50))
    kind, p, q0, p0, m, beta, t1 = fresh(ctx, ("audit", d), draw)

    def run():
        H = mechanics.hooke_hamiltonian(p, kind, m, beta)
        traj = mechanics.closed_flow_series(kind, mechanics.PhaseState(p, [q0], [p0]),
                                            m=m, beta=beta, degree=d)
        return mechanics.work_energy_audit(H, traj, 0, t1)

    def check(rep):
        tol = Fraction(1, p ** (K - rep.loss))
        if rep.energy_gap > tol or rep.potential_gap > tol:
            return f"gaps {rep.energy_gap}, {rep.potential_gap} exceed p^-(K-loss) = {tol}"
        work, d_t, d_v, gap_e, gap_v, loss = audit_model(kind, p, q0, p0, m, beta, t1, d)
        if (rep.energy_gap, rep.potential_gap, rep.loss) != (gap_e, gap_v, loss):
            return (f"gaps {rep.energy_gap}, {rep.potential_gap} and loss {rep.loss} differ "
                    f"from {gap_e}, {gap_v} and {loss}")
        want_w, want_t, want_v = audit_exact(kind, q0, p0, m, beta, t1, d)
        return (check_number(rep.work, want_w, work, "work")
                or check_number(rep.delta_kinetic, want_t, d_t, "delta_kinetic")
                or check_number(rep.delta_potential, want_v, d_v, "delta_potential"))
    return Op("audit", f"{kind} p={p} D={d}", run, check)


def wave_exact(p, mom, en, d):
    """{(i, j): coefficient of t^i x^j} for cos and sin of p*(mom*x - en*t)."""
    a, b = -en * p, mom * p
    cos_t, sin_t = {}, {}
    for m in range(d + 1):
        sign = (-1) ** (m // 2)
        for i in range(m + 1):
            c = sign * a**i * b ** (m - i) / (math.factorial(i) * math.factorial(m - i))
            (cos_t if m % 2 == 0 else sin_t)[(i, m - i)] = c
    return cos_t, sin_t


def wave_model(kind, p, mom, en, d, prec):
    """compose_series(elementary(kind), theta) replayed on `Approx`: Horner in
    the phase theta = p (mom x - en t), monomials above degree d dropped."""
    inv_h = Approx.of(p, p, prec)
    theta = {(1, 0): -Approx.of(en, p, prec) * inv_h, (0, 1): Approx.of(mom, p, prec) * inv_h}
    outer = elementary_model(kind, p, d, prec)
    acc = {(0, 0): outer[d]}
    for n in range(d - 1, -1, -1):
        out = {}
        for ea, ca in acc.items():
            for eb, cb in theta.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                if sum(e) <= d:
                    out[e] = out[e] + ca * cb if e in out else ca * cb
        out[(0, 0)] = out[(0, 0)] + outer[n] if (0, 0) in out else outer[n]
        acc = {e: c for e, c in out.items() if not c.is_exact_zero}
    return acc


def check_field(poly, exact, model, d, label):
    if poly.valid != d or set(poly.terms) != set(exact) or set(model) != set(exact):
        return f"{label}: monomials or validity {poly.valid} differ from total degree {d}"
    for expo, c in poly.terms.items():
        err = check_number(c, exact[expo], model[expo], f"{label} coefficient {expo}")
        if err:
            return err
    return None


def build_wave(rng, ctx, p, d):
    mom, en, prec = fresh(ctx, ("wave", p, d), lambda: (
        padic_frac(rng, p, 0), padic_frac(rng, p, 0), rng.choice(BUILD_PRECISIONS)))

    def run():
        return quantum.plane_wave_fields(p, mom, en, degree=d, precision=prec)

    def check(fields):
        cos_t, sin_t = wave_exact(p, mom, en, d)
        return (check_field(fields[0], cos_t, wave_model("cos", p, mom, en, d, prec), d, "cos")
                or check_field(fields[1], sin_t, wave_model("sin", p, mom, en, d, prec), d, "sin"))
    return Op("wave", f"plane wave p={p} D={d} precision={prec}", run, check)


BUILD_DECK = (
    [("compose", build_compose, (d,)) for d in (8, 16, 24)]
    + [("tail", build_tail, (k, d)) for k in (2, 3) for d in (12, 16)]
    + [("taylor", build_taylor, (d,)) for d in (8, 16, 24)]
    + [("audit", build_audit, (d,)) for d in (24, 32, 40)]
    + [("wave", build_wave, (p, d)) for p in (3, 7, 11) for d in (12, 24)]
)


class Build:
    """Library users' heavy constructions; no operation's inputs repeat."""

    name = "build"
    import_module = "padicmech"
    tail_percentile = 90
    trace_cycles = 3

    def setup(self, seed, workdir):
        return {"seed": seed, "used": set()}

    def cycle(self, ctx, index):
        rng = cycle_rng(ctx["seed"], self.name, index)
        deck = list(BUILD_DECK)
        rng.shuffle(deck)
        return [make(rng, ctx, *args) for _, make, args in deck]


# ---------------------------------------------------------------- evaluate

EVAL_PRIMES = (3, 5, 7)
HOOKE_CASES = (("hooke_trig", 5), ("hooke_exp", 5), ("hooke_trig", 7), ("hooke_exp", 7))
EVAL_DEGREE = 24


class Evaluate:
    """Library users reading prebuilt objects at many distinct points."""

    name = "evaluate"
    import_module = "padicmech"
    tail_percentile = 99
    trace_cycles = 40

    def setup(self, seed, workdir):
        """Build the read-only objects; this is the timed part of set-up."""
        rng = random.Random(f"evaluate-objects:{seed}")
        d = EVAL_DEGREE
        elem = {(kind, p): series.elementary(kind, p, d)
                for p in EVAL_PRIMES for kind in ("exp", "sin", "cos")}
        trajs = []
        for kind, p in HOOKE_CASES:
            q0, p0 = Fraction(zp_int(rng, p, 6)), Fraction(zp_int(rng, p, 6))
            m, beta = padic_frac(rng, p, 0), padic_frac(rng, p, 0)
            traj = mechanics.closed_flow_series(kind, mechanics.PhaseState(p, [q0], [p0]),
                                                m=m, beta=beta, degree=d)
            trajs.append((traj, (kind, p, q0, p0, m, beta)))
        mom, en = rng.randint(1, 20), rng.randint(1, 20)
        wave = quantum.plane_wave_fields(7, mom, en, degree=d)
        polys = []
        for p in EVAL_PRIMES:
            ints = [rng.randrange(p**12) * p ** rng.choice((0, 0, 1)) for _ in range(rng.randint(6, 10))]
            polys.append((series.PowerSeries.polynomial(p, ints), p, ints))
        return {"seed": seed, "elem": elem, "trajs": trajs, "wave": (wave, mom, en),
                "polys": polys, "points": 0}

    def prepare_checks(self, ctx):
        """Exact references for the objects; not part of set-up time."""
        ctx["elem_approx"], ctx["prim_approx"] = {}, {}
        for kind, p in ctx["elem"]:
            coeffs = [Approx.of(c, p, 12) for c in O.elementary_coeffs(kind, EVAL_DEGREE)]
            ctx["elem_approx"][kind, p] = coeffs
            ctx["prim_approx"][kind, p] = [Approx.zero(p)] + [
                c / Approx.of(n + 1, p, 12 if c.is_zero else c.rel) for n, c in enumerate(coeffs)]
        ctx["traj_exact"] = []
        for _, (kind, p, q0, p0, m, beta) in ctx["trajs"]:
            qc, pc = hooke_exact(kind, q0, p0, m, beta, EVAL_DEGREE)
            ctx["traj_exact"].append(([O.unit_split(c, p, 24) for c in qc],
                                      [O.unit_split(c, p, 24) for c in pc]))

    def _point(self, rng, ctx, p):
        """+-p^v (p c + r) on the disc |x| <= 1/p, with c a counter: every point
        of a run is distinct without remembering the earlier ones."""
        ctx["points"] += 1
        x = Fraction(p) ** rng.randint(1, 3) * (ctx["points"] * p + rng.randint(1, p - 1))
        return -x if rng.random() < 0.5 else x

    def op_eval(self, rng, ctx, key, tail):
        f, (kind, p) = ctx["elem"][key], key
        x = self._point(rng, ctx, p)

        def run():
            return series.evaluate(f, x, with_tail=tail)

        def check(res):
            want = O.horner(ctx["elem_approx"][key], Approx.of(x, p, 12)).num()
            got = O.from_library(res[0] if tail else res)
            if got.key() != want.key():
                return f"value {got.key()} != expected {want.key()}"
            if tail and res[1] != O.tail_exponent(EVAL_DEGREE, O.vp(x, p), p):
                return f"tail exponent {res[1]} is wrong"
            return None
        return Op("eval-tail" if tail else "eval", f"{kind} p={p} x={x}", run, check)

    def op_at(self, rng, ctx, i):
        traj, (kind, p, q0, p0, m, beta) = ctx["trajs"][i]
        t = self._point(rng, ctx, p)

        def run():
            return traj.at(t)

        def check(z):
            qc, pc = ctx["traj_exact"][i]
            k = z.precision
            if (O.partial_sum_mod(qc, t, p, k) != z.q[0].residue
                    or O.partial_sum_mod(pc, t, p, k) != z.p[0].residue):
                return f"state at t={t} differs from the partial sums"
            s = 1 if kind == "hooke_trig" else -1
            rq, rp = Fraction(z.q[0].residue), Fraction(z.p[0].residue)
            drift = (rp * rp - p0 * p0) / (2 * m) + s * m * beta**2 * (rq * rq - q0 * q0) / 2
            if drift and O.vp(drift, p) < k:
                return f"energy moved by {drift} along the flow"
            return None
        return Op("at", f"{kind} p={p} t={t}", run, check)

    def op_wave(self, rng, ctx):
        (cos_f, sin_f), mom, en = ctx["wave"]
        ctx["points"] += 1
        t, x = ctx["points"], zp_int(rng, 7)

        def run():
            return cos_f.evaluate([t, x]), sin_f.evaluate([t, x])

        def check(res):
            c, s = _wave_parts(7 * (mom * x - en * t), EVAL_DEGREE)
            gc, gs = O.from_library(res[0]), O.from_library(res[1])
            if not (O.agrees(gc, c) and O.agrees(gs, s)):
                return "field values differ from the partial sums"
            if min(gc.abs_prec, gs.abs_prec) < 8:
                return "fields known to fewer than 8 digits"
            ms = gc.value() ** 2 + gs.value() ** 2 - 1
            if ms and O.vp(ms, 7) < 8:
                return "modulus is not 1 mod 7^8"
            return None
        return Op("wave-read", f"t={t} x={x}", run, check)

    def op_integral(self, rng, ctx):
        key = rng.choice(sorted(ctx["elem"]))
        f, (kind, p) = ctx["elem"][key], key
        a, b = self._point(rng, ctx, p), self._point(rng, ctx, p)

        def run():
            return series.definite_integral(f, a, b)

        def check(res):
            prim = ctx["prim_approx"][key]
            want = (O.horner(prim, Approx.of(b, p, 12)) - O.horner(prim, Approx.of(a, p, 12))).num()
            got = O.from_library(res)
            return None if got.key() == want.key() else f"integral {got.key()} != {want.key()}"
        return Op("integral", f"{kind} p={p} [{a}, {b}]", run, check)

    def op_probe(self, rng, ctx):
        poly, p, ints = rng.choice(ctx["polys"])
        depth = rng.randint(1, 3)

        def run():
            return series.sup_norm_probe(poly, depth)

        def check(rep):
            want = O.sup_norm(ints, p, min(O.vp_int(c, p) + 12 for c in ints if c), depth)
            got = (rep.value, rep.upper_bound, rep.certified)
            return None if got == want else f"probe {got} != {want}"
        return Op("probe", f"p={p} depth={depth}", run, check)

    def cycle(self, ctx, index):
        rng = cycle_rng(ctx["seed"], self.name, index)
        deck = ([("eval", key) for key in sorted(ctx["elem"])] + [("eval-tail", None)] * 3
                + [("at", i) for i in range(len(ctx["trajs"]))] + [("wave", None)] * 2
                + [("integral", None)] * 3 + [("probe", None)] * 2)
        rng.shuffle(deck)
        ops = []
        for family, arg in deck:
            if family == "eval":
                ops.append(self.op_eval(rng, ctx, arg, False))
            elif family == "eval-tail":
                ops.append(self.op_eval(rng, ctx, rng.choice(sorted(ctx["elem"])), True))
            elif family == "at":
                ops.append(self.op_at(rng, ctx, arg))
            elif family == "wave":
                ops.append(self.op_wave(rng, ctx))
            elif family == "integral":
                ops.append(self.op_integral(rng, ctx))
            else:
                ops.append(self.op_probe(rng, ctx))
        return ops


WORKLOADS = {w.name: w for w in (CliMix(), Build(), Evaluate())}
