"""Diagnostic degree sweep: how the heavy constructions grow with degree D.

    python3 bench/sweep.py

Not a workload and not a gate.  Times exp.compose(sin), plane_wave_fields,
the cubic 2-D taylor_integrate and work_energy_audit at D = 8/16/24/32, and
at D = 48 only when the D = 32 point of that case took under CAP_32 seconds
(growth is roughly D^4, so D = 48 then stays near ten seconds).  Also times
evaluate(e^k, x, with_tail=True) for k = 2, 3, 4 at D = 8.  Each point is the
median of REPEATS runs (one run once a point passes a second).  Prints one
line per point and a JSON object last.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from padicmech import mechanics, multi, quantum, series  # noqa: E402

DEGREES = (8, 16, 24, 32)
CAP_32 = 1.5
REPEATS = 3


def compose(d):
    series.elementary("exp", 7, d).compose(series.elementary("sin", 7, d))


def wave(d):
    quantum.plane_wave_fields(7, 3, 1, degree=d)


def taylor(d):
    V = multi.MultiPoly(5, 2, {(3, 0): 1, (0, 3): 1, (1, 1): 2})
    H = mechanics.HamiltonianSpec(5, [1, 1], V)
    mechanics.taylor_integrate(H, mechanics.PhaseState(5, [2, 3], [1, 4]), d)


def audit(d):
    H = mechanics.hooke_hamiltonian(5, "hooke_trig", 1, 1)
    traj = mechanics.closed_flow_series("hooke_trig", mechanics.PhaseState(5, [2], [3]),
                                        m=1, beta=1, degree=d)
    mechanics.work_energy_audit(H, traj, 0, 5)


def tail_power(k):
    e = series.elementary("exp", 5, 8)
    f = e
    for _ in range(k - 1):
        f = f * e
    series.evaluate(f, 5, with_tail=True)


def timed(fn, arg):
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t)
        if times[-1] > 1.0:
            break
    return statistics.median(times)


def main():
    out = {}
    for name, fn in (("exp.compose(sin)", compose), ("plane_wave_fields p=7", wave),
                     ("taylor_integrate cubic 2-D", taylor), ("work_energy_audit", audit)):
        row = {}
        for d in DEGREES + (48,):
            if d == 48 and row[32] >= CAP_32:
                print(f"{name:28s} D={d:3d}  skipped: D=32 took {row[32]:.2f} s >= {CAP_32} s")
                continue
            row[d] = timed(fn, d)
            print(f"{name:28s} D={d:3d}  {row[d] * 1e3:10.2f} ms", flush=True)
        out[name] = {str(d): t for d, t in row.items()}
    row = {}
    for k in (2, 3, 4):
        row[k] = timed(tail_power, k)
        print(f"{'evaluate(e^k, tail) D=8':28s} k={k}      {row[k] * 1e3:10.2f} ms", flush=True)
    out["evaluate(e^k, with_tail) D=8"] = {str(k): t for k, t in row.items()}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
