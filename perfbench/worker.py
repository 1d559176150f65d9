"""One benchmark pass in a fresh process: set up, run the ops, check them.

Started by run.py, one at a time.  It imports zqgeom from the checkout's
`src`, builds the workload's inputs, prints `READY` (the end of set-up),
then times each op, checks every output, and prints one JSON line with
the op times, the outcome of each check, peak RSS and, when traced, the
per-layer numbers.  With `--setup-only` it stops after `READY`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    src = ROOT / "src"
    if not (src / "zqgeom" / "__init__.py").is_file():
        sys.exit(f"no zqgeom sources under {src}")
    sys.path.insert(0, str(src))
    import zqgeom
    import zqgeom.cli

    if Path(zqgeom.__file__).resolve().parent != src / "zqgeom":
        sys.exit(f"imported zqgeom from {zqgeom.__file__}, not from {src}")
    return zqgeom


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here, one JSON list per line")
    args = ap.parse_args(argv)

    zq = import_program()
    import speed
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        ops = workloads.build(zq, args.workload, args.seed, tmp)
        # run.py measures set-up up to this instant; the clock is system-wide
        print(f"READY {time.monotonic()!r}", flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        print(f"PROBE {speed.probe_median()!r}", flush=True)
        if args.setup_only:
            return 0
        result = run_ops(zq, ops, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run_ops(zq, ops, args) -> dict:
    import speed

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(zq)
        tracer.install()
    else:
        tracer = None
    # no speed probes when traced: their time would land in whichever layer they interrupt
    meter = speed.SpeedMeter(probing=not tracer)
    records, outputs, per_op = [], [], []
    report_bytes = 0
    with meter as timer:
        for op in ops:
            before = tracer.snapshot() if tracer else None
            if tracer:
                tracer.begin_op()
            out, error, seconds, scaled = timer.timed(op.run)
            if tracer:
                tracer.end_op()
                after = tracer.snapshot()
                per_op.append({
                    "label": op.label,
                    "tag": op.tag,
                    "seconds": seconds,
                    "delta": {k: v - before.get(k, 0) for k, v in after.items()},
                })
            if op.argv and error is None:
                report_bytes += len(out[1])
            records.append({"label": op.label, "tag": op.tag, "seconds": seconds,
                            "scaled": scaled, "error": error})
            outputs.append(out)
    result = {"ops": records, "probes": timer.samples}
    if tracer:
        # taken before the checks, which call the library again
        wall = sum(r["seconds"] for r in records)
        result["layers"] = tracing.layer_metrics(tracer, wall, report_bytes)
        result["per_op"] = per_op
        result["missing"] = tracer.missing
        result["self_s"] = dict(tracer.self_s)
        result["incl_s"] = dict(tracer.incl)
        if args.spans:
            tracer.write_spans(args.spans)
    for rec, op, out in zip(records, ops, outputs):
        if rec["error"] is None:
            try:
                errors = op.check(out)
            except Exception:
                errors = ["check raised: " + traceback.format_exc(limit=2)]
            rec["error"] = "; ".join(errors) or None
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    sys.exit(main())
