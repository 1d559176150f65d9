"""zqgeom benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload lemma-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout that has `src/zqgeom`; needs only the stdlib and numpy.
Each pass of a workload runs in a fresh single-threaded worker process
(worker.py), so every lru_cache starts cold, as it does for a CLI user.
Passes repeat, one worker at a time, while another fits in `--seconds`;
there is always at least one.  Set-up (interpreter start, import, input
generation) is timed in every worker, and in extra set-up-only workers
until there are SETUP_SAMPLES of them.

With `--trace 0` the last line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the workers wrap the program's public
functions (tracer.py) and the last line holds the per-layer metrics.
Lines before it give every metric by name with its unit, and the
details go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
MAX_PASSES = 50
RUN_LIMIT_S = 165  # a run ends well inside 180 s even when a pass overruns

WORKER_ENV = {
    # single-threaded load: one worker at a time, no BLAS thread pools
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # every worker compiles the sources afresh and hashes the same way
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker; return its set-up seconds, the speed probe taken
    right after set-up, and its result line."""
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the run's time limit") from None
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        tail = err.strip().splitlines()[-3:]
        raise WorkerFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    setup = float(ready[0].split()[1]) - start
    probe = float(next(ln for ln in lines if ln.startswith("PROBE ")).split()[1])
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return setup, probe, result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, setups, durations, problems = [], [], [], []
    base = ["--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
    while len(passes) < MAX_PASSES:
        t0 = time.monotonic()
        extra = []
        if trace:
            extra = ["--spans", str(OUT / f"spans-{name}-seed{seed}-pass{len(passes)}.jsonl")]
        try:
            setup, probe, result = spawn(base + extra, deadline)
        except WorkerFailed as exc:
            problems.append(str(exc))
            break
        setups.append((setup, probe))
        passes.append(result)
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        try:
            setups.append(spawn(base + ["--setup-only"], deadline)[:2])
        except WorkerFailed as exc:
            problems.append(str(exc))
            break
    return {"name": name, "seed": seed, "passes": passes, "setups": setups,
            "problems": problems, "elapsed_s": time.monotonic() - start}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(run: dict) -> dict:
    """End-to-end figures of an untraced run, plus the outcome counts.

    Times are scaled to the reference speed by the worker's probes; the
    raw seconds are kept under `*_raw_s` for the printout.
    """
    from speed import NOMINAL_S

    passes = run["passes"]
    ops = [op for p in passes for op in p["ops"]]
    samples = sorted(op["scaled"] for op in ops)
    by_tag = defaultdict(list)
    for p in passes:
        tags = defaultdict(float)
        for op in p["ops"]:
            tags[op["tag"]] += op["scaled"]
        for tag, s in tags.items():
            by_tag[tag].append(s)
    out = {
        "setup_s": _median([s * NOMINAL_S / probe for s, probe in run["setups"]]),
        "setup_raw_s": _median([s for s, _ in run["setups"]]),
        "wall_s": _median([sum(op["scaled"] for op in p["ops"]) for p in passes]),
        "wall_raw_s": _median([sum(op["seconds"] for op in p["ops"]) for p in passes]),
        "probe_s": _median([x for p in passes for x in p["probes"]]),
        "trial_p50_s": _median(samples),
        "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
        "samples": len(samples),
        "passes": len(passes),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"]),
        "by_tag_s": {tag: _median(v) for tag, v in sorted(by_tag.items())},
    }
    # the highest percentile with at least ten samples beyond it
    if len(samples) >= 100:
        out["trial_p90_s"] = statistics.quantiles(samples, n=10)[-1]
    return out


def summarize_trace(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the details behind them."""
    import tracer

    passes = run["passes"]
    layers = [p["layers"] for p in passes]
    metrics, flags = {}, []
    for name in layers[0] if layers else ():
        values = [lm[name] for lm in layers]
        if name in tracer.EXACT:
            if len(set(values)) > 1:
                flags.append(f"{name} differs between passes of one run: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    flags += _compare_exact(run["name"], run["seed"], metrics)
    tag_self = defaultdict(lambda: defaultdict(float))
    for rec in passes[0]["per_op"] if passes else ():
        for key, val in rec["delta"].items():
            if key.endswith(".self_s"):
                tag_self[rec["tag"]][key[: -len(".self_s")]] += val
    total_self = defaultdict(float)
    for per in tag_self.values():
        for layer, s in per.items():
            total_self[layer] += s
    details = {
        "workload": run["name"],
        "seed": run["seed"],
        "metrics": metrics,
        "self_s_by_layer": dict(total_self),
        "self_s_by_tag": {t: dict(v) for t, v in tag_self.items()},
        "inclusive_s": passes[0]["incl_s"] if passes else {},
        "largest_self_layer": _largest(total_self),
        "largest_self_layer_by_tag": {t: _largest(v) for t, v in tag_self.items()},
        "exact_count_flags": flags,
        "unwrapped": passes[0]["missing"] if passes else [],
        "per_op": passes[0]["per_op"] if passes else [],
    }
    return metrics, details


def _largest(self_s: dict) -> str | None:
    layers = {k: v for k, v in self_s.items() if k not in ("bench", "tracer")}
    return max(layers, key=layers.get) if layers else None


def _compare_exact(name: str, seed: int, metrics: dict) -> list[str]:
    """Flag exact counts that differ from the first traced run in this checkout."""
    import tracer

    path = OUT / "exact_counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    mine = {k: metrics[k] for k in tracer.EXACT if k in metrics}
    if name not in seen:
        seen[name] = {"seed": seed, "counts": mine}
        path.write_text(json.dumps(seen, indent=1, sort_keys=True))
        return []
    first = seen[name]
    return [
        f"{k} = {v}, but {first['counts'].get(k)} in the run with seed {first['seed']}"
        for k, v in mine.items()
        if first["counts"].get(k) != v
    ]


def load_catalogue() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def report(name: str, seed: int, seconds: float, trace: bool, catalogue: dict) -> dict:
    run = run_workload(name, seed, seconds, trace)
    summary = summarize(run)
    print(f"== {name} seed={seed} trace={int(trace)}: {summary['passes']} pass(es), "
          f"{summary['attempted']} ops, {summary['failed']} failed, "
          f"{len(run['setups'])} set-ups, {run['elapsed_s']:.1f} s")
    for problem in run["problems"]:
        print(f"   worker problem: {problem}")
    for p in run["passes"]:
        for op in p["ops"]:
            if op["error"]:
                print(f"   FAILED {op['label']}: {op['error']}")
    if trace:
        values, details = summarize_trace(run)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(details, indent=1, sort_keys=True))
        print(f"   largest self-time layer: {details['largest_self_layer']}; by op kind: "
              + ", ".join(f"{t}={v}" for t, v in sorted(details["largest_self_layer_by_tag"].items())))
        ops = details["per_op"]
        for rec in ops if len(ops) <= 20 else ():
            layer_s = {k[: -len(".self_s")]: v for k, v in rec["delta"].items()
                       if k.endswith(".self_s")}
            contains = rec["delta"].get("geometry.Line.__contains__.calls", 0)
            print(f"   op {rec['label']}: {rec['seconds']:.3f} s traced, largest self-time "
                  f"layer {_largest(layer_s)}"
                  + (f", line_contains_calls {contains}" if contains else ""))
        for flag in details["exact_count_flags"]:
            print(f"   EXACT-COUNT FLAG {flag}")
        wanted = catalogue["per_layer"]
        print(f"   details in {path.relative_to(ROOT)}")
    else:
        values = dict(summary)
        print(f"   fail_ratio = {summary['failed'] / max(1, summary['attempted']):.6g} 1 "
              f"({summary['failed']} of {summary['attempted']} ops)")
        print(f"   wall_raw_s = {summary['wall_raw_s']:.6g} s, setup_raw_s = "
              f"{summary['setup_raw_s']:.6g} s, probe_s = {summary['probe_s']:.6g} s "
              "(unscaled seconds and the median speed probe)")
        print(f"   trial_p50_s = {summary['trial_p50_s']:.6g} s over {summary['samples']} ops; "
              "trial_p90_s = " + (f"{summary['trial_p90_s']:.6g} s" if "trial_p90_s" in summary
                                  else "n/a (fewer than 100 samples)"))
        for tag, s in summary["by_tag_s"].items():
            print(f"   {tag}_s = {s:.6g} s (median per pass)")
        wanted = catalogue["end_to_end"]
    metrics = {}
    for metric, unit in wanted:
        value = values.get(metric, 0)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"   {metric} = {value:.6g} {unit}")
    complete = not run["problems"] and bool(run["passes"])
    attempted = summary["attempted"] + (0 if complete else 1)
    failed = summary["failed"] + (0 if complete else 1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zqgeom" / "__init__.py").is_file():
        print(f"error: no zqgeom sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    names = catalogue["workloads"] if args.workload == "all" else [args.workload]
    if any(n not in catalogue["workloads"] for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    results = {n: report(n, args.seed, args.seconds, bool(args.trace), catalogue) for n in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
