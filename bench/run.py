"""padicmech benchmark: seeded closed-loop workloads with checked results.

    python3 bench/run.py --workload cli-mix|build|evaluate --seed N \
        --seconds S --trace 0|1

Run from the repository root or anywhere else; the library is imported from
the `src/` directory next to this one.  Operations run in cycles (see
workloads.py) until the timed loop has taken `--seconds`; each cycle's
results are checked against independent references after its timing ends.

--trace 0 prints the end-to-end metrics: throughput, median and tail
latency, set-up time and peak RSS.  --trace 1 instead runs a fixed number of
cycles with spans around the library's layers (spans.py) and prints the
per-layer metrics; its counts depend only on the seed.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 9


def fresh_import_seconds(module: str) -> float:
    """Import time of `module` in a new interpreter, measured inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


class SetupClock:
    """Set-up time: a fresh import of the workload's module plus the in-process
    set-up (inputs and read-only objects).  Samples are spread over the whole
    run, outside the timed loop, so that their median sees the same machine
    conditions as the loop; setup_s is the sum of the two medians."""

    def __init__(self, wl, seed, workdir):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.imports, self.builds = [], []

    def sample(self):
        self.imports.append(fresh_import_seconds(self.wl.import_module))
        t = time.perf_counter()
        ctx = self.wl.setup(self.seed, self.workdir)
        self.builds.append(time.perf_counter() - t)
        return ctx

    def seconds(self):
        return statistics.median(self.imports) + statistics.median(self.builds)


class Tally:
    """Checks results outside the timed region; keeps the first failure."""

    def __init__(self, checked):
        self.checked = checked
        self.attempted = 0
        self.failed = 0
        self.first = None

    def add(self, ops, results):
        for op, res in zip(ops, results):
            self.attempted += 1
            err = self.checked(op.check, res)
            if err is not None:
                self.failed += 1
                if self.first is None:
                    self.first = f"{op.family} [{op.label}]: {err}"
                    print(f"FAILED {self.first}", file=sys.stderr)


def execute(ops, raised, latencies=None, families=None, tracer=None):
    """Run ops back to back; returns (results, wall seconds).  A tracer is
    told the index of each operation, so its spans can be tied to it."""
    results = []
    clock = time.perf_counter
    t_start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            res = op.run()
        except Exception as exc:  # the check reports it as a failed operation
            res = raised(exc)
        if latencies is not None:
            latencies.append(clock() - t0)
            families.append(op.family)
        results.append(res)
    return results, clock() - t_start


def run_timed(w, wl, ctx, seconds, tally, setup):
    warm = wl.cycle(ctx, 0)
    tally.add(warm, execute(warm, w.Raised)[0])
    times, families, wall, index = array.array("d"), [], 0.0, 1
    while wall < seconds:
        ops = wl.cycle(ctx, index)
        index += 1
        results, took = execute(ops, w.Raised, times, families)
        wall += took
        tally.add(ops, results)
        if len(setup.imports) < SETUP_SAMPLES and wall >= seconds * len(setup.imports) / SETUP_SAMPLES:
            setup.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the summary's copies
    by_family = {}
    for fam, t in zip(families, times):
        by_family.setdefault(fam.replace("repeat ", ""), []).append(t)
    for fam in sorted(by_family):
        ts = by_family[fam]
        print(f"  {fam:18s} n={len(ts):6d}  p50={statistics.median(ts) * 1e3:9.3f} ms  "
              f"share={sum(ts) / sum(times):6.1%}")
    tail = statistics.quantiles(times, n=100)[wl.tail_percentile - 1]
    print(f"  {len(times)} timed ops in {index - 1} cycles, {wall:.2f} s loop wall; "
          f"latency_tail_ms is p{wl.tail_percentile} "
          f"({len(times) * (100 - wl.tail_percentile) // 100} samples beyond it)")
    return {
        "throughput_ops_s": (len(times) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(w, wl, ctx, tally, seed):
    import spans

    warm = wl.cycle(ctx, 0)
    tally.add(warm, execute(warm, w.Raised)[0])
    c = wl.trace_cycles
    traced_ops = [op for i in range(1, c + 1) for op in wl.cycle(ctx, i)]
    reference_ops = [op for i in range(c + 1, 2 * c + 1) for op in wl.cycle(ctx, i)]
    tracer = spans.Tracer()
    try:
        tracer.install()
        traced_results, traced_wall = execute(traced_ops, w.Raised, tracer=tracer)
    finally:
        tracer.uninstall()
    tally.add(traced_ops, traced_results)
    reference_results, reference_wall = execute(reference_ops, w.Raised)
    tally.add(reference_ops, reference_results)
    stats, taylor_coeffs = tracer.summarize()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.tsv.gz")
    tracer.write(path)
    print(f"  {len(traced_ops)} traced ops ({c} cycles), {tracer.count()} spans -> "
          f"{os.path.relpath(path, ROOT)}; traced wall {traced_wall:.2f} s, "
          f"untraced {reference_wall:.2f} s on the next {c} cycles")
    return spans.layer_metrics(stats, taylor_coeffs, traced_wall, reference_wall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padicmech", "__init__.py")):
        print(f"bench: no padicmech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = w.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally(w.checked)
    print(f"padicmech bench: workload={wl.name} seed={args.seed} trace={args.trace}")
    try:
        setup = SetupClock(wl, args.seed, workdir)
        ctx = setup.sample()
        if hasattr(wl, "prepare_checks"):
            wl.prepare_checks(ctx)
        if args.trace:
            metrics = run_traced(w, wl, ctx, tally, args.seed)
        else:
            metrics = run_timed(w, wl, ctx, args.seconds, tally, setup)
            metrics["setup_s"] = (setup.seconds(), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':38s} {ratio:14.6g} (failed {tally.failed} of {tally.attempted})")
    if tally.first:
        print(f"  first failure: {tally.first}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
