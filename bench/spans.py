"""Span tracer for the benchmark's traced run.

The library has no spans of its own, so the tracer wraps the public
functions and methods of each layer from outside.  A span records its name,
start, end, parent span, the index of the traced operation it ran under and
one integer payload; spans live in flat arrays until the run ends.  Modules
import names directly (`mechanics` and `cli` bind `series.evaluate`,
`quantum` binds `multi.compose_series`), so a module-level function is
rebound in every padicmech module that holds it, not only where it is
defined.  `uninstall` restores every original.

A layer's self time is the time its spans cover minus the time their direct
child spans cover.  Time outside every span is the benchmark's own loop.
"""

from __future__ import annotations

import array
import gzip
import inspect
import sys
import time

LAYERS = ("core", "series", "multi", "mechanics", "prob", "quantum", "cli")

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__pow__", "__neg__")
SUM = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
PRODUCT = ("__mul__", "__rmul__")

# (module, class or None, attributes, span name)
TARGETS = (
    ("core", "PadicNumber", ARITH, "core.arith"),
    ("core", "PadicInt", ARITH, "core.arith"),
    ("core", "PadicNumber", ("__init__", "_make", "zero"), "core.construct"),
    ("core", "PadicInt", ("__init__",), "core.construct"),
    ("core", "PadicNumber", ("__str__",), "core.literal"),
    ("core", "PadicInt", ("__str__",), "core.literal"),
    ("core", None, ("parse_padic_int", "parse_padic_number"), "core.literal"),
    ("series", "PowerSeries", SUM, "series.add"),
    ("series", "PowerSeries", PRODUCT, "series.mul"),
    ("series", "PowerSeries", ("scale",), "series.scale"),
    ("series", "PowerSeries", ("derive", "antiderivative"), "series.calculus"),
    ("series", "PowerSeries", ("compose",), "series.compose"),
    ("series", "PowerSeries", ("__str__",), "series.literal"),
    ("series", None, ("parse_series",), "series.literal"),
    ("series", None, ("evaluate",), "series.evaluate"),
    ("series", None, ("elementary",), "series.elementary"),
    ("series", None, ("definite_integral",), "series.definite_integral"),
    ("series", None, ("sup_norm_probe",), "series.sup_norm_probe"),
    ("multi", "MultiPoly", SUM, "multi.add"),
    ("multi", "MultiPoly", PRODUCT + ("scale",), "multi.mul"),
    ("multi", "MultiPoly", ("partial",), "multi.partial"),
    ("multi", "MultiPoly", ("evaluate",), "multi.evaluate"),
    ("multi", "MultiPoly", ("substitute",), "multi.substitute"),
    ("multi", "MultiPoly", ("substitute_multi",), "multi.substitute_multi"),
    ("multi", None, ("compose_series",), "multi.compose_series"),
    ("mechanics", None, ("closed_flow_series", "closed_flow", "energy_series"), "mechanics.flow"),
    ("mechanics", None, ("taylor_integrate",), "mechanics.taylor_integrate"),
    ("mechanics", None, ("work_energy_audit",), "mechanics.work_energy_audit"),
    ("mechanics", None, ("hooke_hamiltonian", "free_hamiltonian", "restriction_check"),
     "mechanics.system"),
    ("mechanics", "HamiltonianSpec", ("__init__", "energy", "kinetic"), "mechanics.system"),
    ("mechanics", "PhaseState", ("__init__",), "mechanics.system"),
    ("mechanics", "TrajectorySeries", ("at",), "mechanics.at"),
    ("prob", None, ("dual_limit_synthesize", "stabilization_detect", "ball_volume"), "prob.api"),
    ("prob", "FrequencyRecord", ("__init__",), "prob.api"),
    ("quantum", None, ("plane_wave_fields",), "quantum.plane_wave_fields"),
    ("quantum", None, ("schwarz_report",), "quantum.schwarz_report"),
    ("quantum", None, ("plane_wave", "mixed_state_probabilities", "oscillator_spectrum",
                       "interference_term", "inner_product"), "quantum.api"),
    ("quantum", "PadicComplex", ("modulus_sq",), "quantum.api"),
    ("cli", None, ("dispatch",), "cli.dispatch"),
    ("cli", None, ("build_parser",), "cli.build_parser"),
)


def _coeffs_produced(out, args, kwargs):
    return len(out.coeffs)


def _coeffs_kept(out, args, kwargs):
    """taylor_integrate(H, z0, degree) keeps n * D coefficients."""
    degree = kwargs["degree"] if "degree" in kwargs else args[2]
    return args[0].n * degree


PAYLOADS = {"substitute": _coeffs_produced, "taylor_integrate": _coeffs_kept}


def _repeated_arguments(fn):
    """Payload 1 when a call's arguments (defaults filled in) were seen before
    in this run: the calls a cache keyed on the arguments would serve."""
    sig = inspect.signature(fn)
    seen = set()

    def payload(out, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        if key in seen:
            return 1
        seen.add(key)
        return 0
    return payload


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array.array("H")
        self.parent = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.value = array.array("q")
        self.op_index = array.array("l")
        self.op = -1  # index of the operation now running, set by the caller
        self.stack = [-1]
        self._restore = []

    def _sid(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name, payload=None):
        """fn inside a span; payload(result, args, kwargs) fills the span's value."""
        sid = self._sid(name)
        names, parents, starts, ends, values, op_index, stack = (
            self.name, self.parent, self.start, self.end, self.value, self.op_index, self.stack)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            op_index.append(tracer.op)
            ends.append(0)
            values.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if payload is not None:
                values[i] = payload(out, args, kwargs)
            return out
        traced.__wrapped__ = fn
        return traced

    def _wrap_evaluate(self, fn):
        plain = self.wrap(fn, "series.evaluate")
        tail = self.wrap(fn, "series.evaluate_tail")

        def evaluate(f, x, with_tail=False):
            return (tail if with_tail else plain)(f, x, with_tail)
        evaluate.__wrapped__ = fn
        return evaluate

    def _wrap_target(self, fn, attr, span):
        if span == "series.evaluate":
            return self._wrap_evaluate(fn)
        if span == "series.elementary":
            return self.wrap(fn, span, _repeated_arguments(fn))
        return self.wrap(fn, span, PAYLOADS.get(attr))

    def install(self):
        mods = {name: sys.modules[f"padicmech.{name}"] for name in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == "padicmech" or n.startswith("padicmech."))]
        for mod_name, cls_name, attrs, span in TARGETS:
            mod = mods[mod_name]
            for attr in attrs:
                if cls_name is None:
                    original = getattr(mod, attr)
                    new = self._wrap_target(original, attr, span)
                    for holder in holders:
                        for key, val in list(vars(holder).items()):
                            if val is original:
                                setattr(holder, key, new)
                                self._restore.append((holder, key, original))
                    continue
                cls = getattr(mod, cls_name)
                if attr not in cls.__dict__:  # e.g. PadicInt has no __rtruediv__
                    continue
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap_target(raw.__func__, attr, span))
                else:
                    new = self._wrap_target(raw, attr, span)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def count(self):
        return len(self.start)

    def summarize(self):
        """Per span name: calls, self ns, inclusive ns, payload sum; plus the
        payload of substitute spans whose direct parent is taylor_integrate."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += dur[i]
        stats = {name: [0, 0, 0, 0] for name in self.names}
        taylor = self.ids.get("mechanics.taylor_integrate")
        subst = self.ids.get("multi.substitute")
        in_taylor = 0
        for i in range(n):
            st = stats[self.names[self.name[i]]]
            st[0] += 1
            st[1] += dur[i] - child[i]
            st[2] += dur[i]
            st[3] += self.value[i]
            if self.name[i] == subst and parent[i] >= 0 and self.name[parent[i]] == taylor:
                in_taylor += self.value[i]
        return stats, in_taylor

    def write(self, path):
        """All spans as gzip'd TSV: id, parent, operation, name, start ns, end ns, value."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tvalue\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op_index[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.value[i]}\n")


def layer_metrics(stats, taylor_coeffs, traced_wall, reference_wall):
    """The per-layer metrics named in BENCHMARK.json, from summarized spans."""
    def get(name, i):
        return stats.get(name, (0, 0, 0, 0))[i]

    def calls(name):
        return get(name, 0)

    def self_s(name):
        return get(name, 1) / 1e9

    def per_call(total, count, scale):
        return total * scale / count if count else 0.0

    layer_self = {layer: 0 for layer in LAYERS}
    for name, st in stats.items():
        layer_self[name.split(".")[0]] += st[1]
    dispatch = calls("cli.dispatch")
    taylor_n_d = get("mechanics.taylor_integrate", 3)
    m = {
        "cli.dispatch.calls": (dispatch, "count"),
        "cli.self_ms_per_call": (per_call(layer_self["cli"], dispatch, 1e-6), "ms"),
        "cli.build_parser.ms_per_call": (
            per_call(get("cli.build_parser", 2), calls("cli.build_parser"), 1e-6), "ms"),
        "core.arith.calls": (calls("core.arith"), "count"),
        "core.arith.self_s": (self_s("core.arith"), "s"),
        "core.arith.ns_per_call": (per_call(get("core.arith", 1), calls("core.arith"), 1), "ns"),
        "core.construct.calls": (calls("core.construct"), "count"),
        "core.literal.self_s": (self_s("core.literal"), "s"),
        "series.mul.calls": (calls("series.mul"), "count"),
        "series.mul.self_s": (self_s("series.mul"), "s"),
        "series.compose.self_s": (self_s("series.compose"), "s"),
        "series.evaluate_tail.self_s": (self_s("series.evaluate_tail"), "s"),
        "series.evaluate.calls": (calls("series.evaluate"), "count"),
        "series.evaluate.self_s": (self_s("series.evaluate"), "s"),
        "series.elementary.calls": (calls("series.elementary"), "count"),
        "series.elementary.self_s": (self_s("series.elementary"), "s"),
        "series.elementary.repeat_calls": (get("series.elementary", 3), "count"),
        "multi.compose_series.self_s": (self_s("multi.compose_series"), "s"),
        "multi.substitute.calls": (calls("multi.substitute"), "count"),
        "multi.substitute.self_s": (self_s("multi.substitute"), "s"),
        "multi.substitute.coeffs_out": (get("multi.substitute", 3), "count"),
        "multi.evaluate.calls": (calls("multi.evaluate"), "count"),
        "multi.evaluate.self_s": (self_s("multi.evaluate"), "s"),
        "mechanics.taylor_integrate.self_s": (self_s("mechanics.taylor_integrate"), "s"),
        "mechanics.taylor.useful_coeff_ratio": (
            taylor_n_d / taylor_coeffs if taylor_coeffs else 0.0, "ratio"),
        "mechanics.work_energy_audit.self_s": (self_s("mechanics.work_energy_audit"), "s"),
        "mechanics.at.calls": (calls("mechanics.at"), "count"),
        "mechanics.at.self_s": (self_s("mechanics.at"), "s"),
        "quantum.plane_wave_fields.self_s": (self_s("quantum.plane_wave_fields"), "s"),
        "quantum.schwarz_report.self_s": (self_s("quantum.schwarz_report"), "s"),
        "prob.self_s": (layer_self["prob"] / 1e9, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / 1e9 / traced_wall, "ratio")
    m["trace.overhead_ratio"] = (traced_wall / reference_wall, "ratio")
    return m
