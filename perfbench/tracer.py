"""Layer tracing from outside the program, for the traced benchmark run.

`Tracer.install()` replaces public functions and methods of the zqgeom
modules with wrappers, at every place the package binds them (module
globals such as `harness.so2_elements`, class attributes such as
`Rotation.transpose`).  Two kinds of wrapper exist:

* span wrappers record (id, parent, name, start, end) in memory; a
  span's self time is its duration minus its child spans and hot calls;
* hot wrappers (methods called millions of times) only count calls and
  add their duration to their layer, without recording a span.

A call made while a hot call is running is folded into that hot call:
it is neither counted in `<layer>.calls` nor given a span, so the
per-layer call counts do not depend on which cache lookups missed.
Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("ring", "geometry", "orthogroup", "fourier", "configsets", "harness", "cli")

# wrapped callables, by layer (= zqgeom module) and qualified name
SPANS = {
    "ring": ["hensel_lift_root", "Modulus.inverse", "Modulus.units", "Modulus.from_q"],
    "geometry": [
        "sphere_points", "stratum_points", "stratum_size", "lines_in_stratum",
        "lines_through", "average_line_points",
    ],
    "orthogroup": ["so2_elements", "stabilizer", "congruence_witness", "triangle_classes"],
    "fourier": [
        "forward", "inverse", "forward_naive", "inverse_naive", "plancherel_gap",
        "GridFunction.indicator", "GridFunction.from_counts",
    ],
    "configsets": [
        "distance_set", "dot_product_set", "dot_product_counts", "triangle_area_set",
        "rotation_correlation", "moment_bound", "difference_stratum_counts",
        "difference_stratum_census", "sumset", "restricted_line_count",
        "PointSet.product", "PointSet.full_grid",
    ],
    "cli": ["main"],
    "harness": [
        "run_lemma_suite", "run_theorem_experiment", "generate_set", "random_subset",
        "parse_pointset", "read_pointset_file", "size_threshold", "conclusion_bound",
        "meets_hypothesis",
    ],
}
HOT = {
    "ring": ["Modulus.valuation", "Polynomial.eval_mod"],
    "geometry": [
        "Line.__contains__", "Line.points", "spanned_line", "stratum_of",
        "vadd", "vsub", "dot", "det2", "norm",
    ],
    "orthogroup": ["canonical_pair", "Rotation.apply", "Rotation.compose", "Rotation.inverse"],
    "harness": ["SplitMix64.below"],
}
# lru_cache objects whose cache_info() is read after every op
CACHED = ("geometry.lines_in_stratum", "orthogroup.so2_elements", "orthogroup.canonical_pair")


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Tracer:
    def __init__(self, package=None):
        self.pkg = package
        self.modules = [package] + [getattr(package, n) for n in LAYERS] if package else []
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)  # "<layer>" and "<layer>.<func>" keys
        self.incl = defaultdict(float)  # inclusive seconds per "<layer>.<func>"
        self.self_s = defaultdict(float)  # self seconds per layer, "bench" for glue
        self.counters = defaultdict(int)  # counters computed from argument sizes
        self.saturated = [0, 0]  # [saturated outputs, counter calls that can saturate]
        self.hot_depth = [0]
        # the root frame stands for the benchmark's own code
        self.stack = [["bench", "bench", 0.0, 0.0, 0]]
        self.caches = {}
        self.missing: list[str] = []
        # per-call wrapper cost outside the timed region, charged to "tracer"
        # instead of the caller; set by calibrate()
        self.cost = {"span": 0.0, "hot": 0.0}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.calibrate()
        for layer, names in SPANS.items():
            for qual in names:
                self._patch(layer, qual, self._span)
        for layer, names in HOT.items():
            for qual in names:
                self._patch(layer, qual, self._hot)

    def _patch(self, layer, qual, make):
        mod = getattr(self.pkg, layer)
        owner_name, _, attr = qual.rpartition(".")
        key = f"{layer}.{qual}"
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(key)
                return
            is_cm = isinstance(raw, classmethod)
            func = raw.__func__ if is_cm else raw
            wrapped = make(layer, key, func)
            new = classmethod(wrapped) if is_cm else wrapped
            for name, val in list(owner.__dict__.items()):
                if val is raw:
                    setattr(owner, name, new)
            return
        func = getattr(mod, attr, None)
        if func is None:
            self.missing.append(key)
            return
        if key in CACHED:
            self.caches[key] = func
        wrapped = make(layer, key, func)
        for m in self.modules:
            for name, val in list(vars(m).items()):
                if val is func:
                    setattr(m, name, wrapped)

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure each wrapper's cost outside its timed region, on a no-op."""

        def noop(*args, **kw):
            return None

        def loop(f):
            t0 = self.clock()
            for _ in range(n):
                f(0)
            return self.clock() - t0

        bare = min(loop(noop) for _ in range(repeats))
        for kind, make in (("span", Tracer._span), ("hot", Tracer._hot)):
            probe = Tracer()
            wrapped = make(probe, "tracer", "tracer.noop", noop)
            best = float("inf")
            for _ in range(repeats):
                probe.incl.clear()
                elapsed = loop(wrapped)
                best = min(best, (elapsed - bare - probe.incl["tracer.noop"]) / n)
            self.cost[kind] = max(0.0, best)

    def _span(self, layer, key, func):
        clock, stack, spans = self.clock, self.stack, self.spans
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self.hot_depth
        cost = self.cost["span"]
        observe = _OBSERVERS.get(key)
        tracer = self

        @functools.wraps(func)
        def span(*args, **kw):
            if depth[0]:
                t0 = clock()
                try:
                    return func(*args, **kw)
                finally:
                    incl[key] += clock() - t0
            parent = stack[-1]
            frame = [key, layer, clock(), 0.0, len(spans) + 1]
            spans.append(None)  # reserve the id, filled in on exit
            stack.append(frame)
            try:
                result = func(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - frame[2]
                self_s[layer] += dur - frame[3]
                parent[3] += dur + cost
                incl[key] += dur
                calls[layer] += 1
                calls[key] += 1
                spans[frame[4] - 1] = (frame[4], parent[4], key, frame[2], t1)
            if observe is not None:
                observe(tracer, args + tuple(kw.values()), result)
            return result

        return span

    def _hot(self, layer, key, func):
        clock, stack = self.clock, self.stack
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self.hot_depth
        cost = self.cost["hot"]

        @functools.wraps(func)
        def hot(*args, **kw):
            calls[key] += 1
            if depth[0]:
                return func(*args, **kw)
            depth[0] = 1
            t0 = clock()
            try:
                return func(*args, **kw)
            finally:
                dur = clock() - t0
                depth[0] = 0
                calls[layer] += 1
                incl[key] += dur
                self_s[layer] += dur
                stack[-1][3] += dur + cost

        return hot

    # -- per-op bookkeeping ---------------------------------------------

    def begin_op(self) -> None:
        self.stack[0][2] = self.clock()
        self.stack[0][3] = 0.0

    def end_op(self) -> None:
        root = self.stack[0]
        self.self_s["bench"] += self.clock() - root[2] - root[3]

    def snapshot(self) -> dict:
        """Cumulative numbers so far; per-op figures are differences of two."""
        out = {f"{k}.self_s": v for k, v in self.self_s.items()}
        n_spans = len(self.spans)
        n_hot = sum(self.calls[layer] for layer in LAYERS) - n_spans
        out["tracer.self_s"] = n_spans * self.cost["span"] + n_hot * self.cost["hot"]
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        for key, fn in self.caches.items():
            info = fn.cache_info()
            out[f"{key}.hits"] = info.hits
            out[f"{key}.misses"] = info.misses
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                if rec is not None:
                    fh.write(json.dumps(rec) + "\n")


# -- computed counters: derived from argument sizes, not measured ----------

def _obs_triangle_classes(t, args, result):
    n = _size(args[1])
    t.counters["orthogroup.triples"] += n**3


def _obs_area(t, args, result):
    n = _size(args[0])
    t.counters["configsets.area_triples"] += n**3
    # int64 difference array (n*n*2) plus the n**3 determinants
    t.counters["configsets.area_bytes_computed"] += 8 * (2 * n * n + n**3)
    t.saturated[1] += 1
    t.saturated[0] += int(len(result) == args[0].m.q - 1)


def _obs_dot(t, args, result):
    n = _size(args[0])
    t.counters["configsets.dot_pairs"] += n * n
    t.saturated[1] += 1
    t.saturated[0] += int(len(result) == args[0].m.q)


def _obs_census(t, args, result):
    t.counters["configsets.census_pairs"] += args[0].q ** 4


def _fourier_grid(args):
    f = args[0]
    return f.m.q, f.d


def _obs_fast(t, args, result):
    q, d = _fourier_grid(args)
    t.counters["fourier.points"] += q**d
    # one q x q kernel contraction per axis, complex128 in and out
    t.counters["fourier.ops_computed"] += d * q ** (d + 1)
    t.counters["fourier.bytes_computed"] += 32 * d * q**d + 16 * q * q


def _obs_naive(t, args, result):
    q, d = _fourier_grid(args)
    t.counters["fourier.points"] += q**d
    # q**d x q**d kernel: complex128 characters plus the int64 point Gram table
    t.counters["fourier.ops_computed"] += q ** (2 * d)
    t.counters["fourier.bytes_computed"] += 24 * q ** (2 * d)


def _obs_random_subset(t, args, result):
    t.counters["harness.points_sampled"] += _size(result)


_OBSERVERS = {
    "orthogroup.triangle_classes": _obs_triangle_classes,
    "configsets.triangle_area_set": _obs_area,
    "configsets.dot_product_set": _obs_dot,
    "configsets.difference_stratum_census": _obs_census,
    "fourier.forward": _obs_fast,
    "fourier.inverse": _obs_fast,
    "fourier.forward_naive": _obs_naive,
    "fourier.inverse_naive": _obs_naive,
    "harness.random_subset": _obs_random_subset,
}


def layer_metrics(t: Tracer, wall: float, report_bytes: int) -> dict:
    """Per-pass per-layer metrics: counts, and times as shares.

    A share is seconds divided by the traced op time less the calibrated
    wrapper overhead, so a layer that does no work on a workload reads 0
    rather than a constant zero-second time.
    """
    snap = t.snapshot()
    net = wall - snap["tracer.self_s"]
    share = (lambda s: s / net) if net > 0 else (lambda s: 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = t.calls.get(layer, 0)
        out[f"{layer}.self_share"] = share(t.self_s.get(layer, 0.0))
    for name, key in (
        ("geometry.lines_in_stratum_share", "geometry.lines_in_stratum"),
        ("configsets.difference_stratum_census_share", "configsets.difference_stratum_census"),
        ("orthogroup.so2_elements_share", "orthogroup.so2_elements"),
        ("orthogroup.triangle_classes_share", "orthogroup.triangle_classes"),
        ("configsets.triangle_area_set_share", "configsets.triangle_area_set"),
        ("configsets.dot_product_set_share", "configsets.dot_product_set"),
        ("configsets.rotation_correlation_share", "configsets.rotation_correlation"),
        ("configsets.moment_bound_share", "configsets.moment_bound"),
        ("fourier.forward_share", "fourier.forward"),
        ("fourier.inverse_share", "fourier.inverse"),
        ("fourier.indicator_share", "fourier.GridFunction.indicator"),
        ("harness.generate_set_share", "harness.generate_set"),
    ):
        out[name] = share(t.incl.get(key, 0.0))
    out["fourier.naive_share"] = share(
        t.incl.get("fourier.forward_naive", 0.0) + t.incl.get("fourier.inverse_naive", 0.0)
    )
    out["geometry.line_contains_calls"] = t.calls.get("geometry.Line.__contains__", 0)
    out["orthogroup.canonical_pair_calls"] = t.calls.get("orthogroup.canonical_pair", 0)
    out["orthogroup.rotation_apply_calls"] = t.calls.get("orthogroup.Rotation.apply", 0)
    out["ring.valuation_calls"] = t.calls.get("ring.Modulus.valuation", 0)
    out["harness.rng_draws"] = t.calls.get("harness.SplitMix64.below", 0)
    for name in (
        "orthogroup.triples", "configsets.area_triples", "configsets.area_bytes_computed",
        "configsets.dot_pairs", "configsets.census_pairs", "fourier.points",
        "fourier.ops_computed", "fourier.bytes_computed", "harness.points_sampled",
    ):
        out[name] = t.counters.get(name, 0)
    for key in CACHED:
        out[f"{key}.hits"] = snap.get(f"{key}.hits", 0)
        out[f"{key}.misses"] = snap.get(f"{key}.misses", 0)
    sat, total = t.saturated
    out["configsets.saturated_share"] = sat / total if total else 0.0
    out["cli.report_bytes"] = report_bytes
    out["traced_wall_s"] = wall
    return out


# metrics that must repeat exactly across passes, runs and seeds of one code
EXACT = (
    [f"{layer}.calls" for layer in LAYERS]
    + [
        "geometry.line_contains_calls", "orthogroup.canonical_pair_calls",
        "orthogroup.triples", "configsets.dot_pairs", "configsets.census_pairs",
        "configsets.area_triples", "fourier.points", "harness.rng_draws",
        "configsets.saturated_share",
    ]
)

