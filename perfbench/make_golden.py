"""Regenerate golden.json from the current program, cross-checked by oracles.

    python3 perfbench/make_golden.py

Runs the lemma-ladder and threshold-stats ops once (their outputs do not
depend on the seed: the lemma suite is exhaustive, and the threshold
statistics saturate), checks the experiment statistics against the
oracles in oracles.py, and writes each op's exit code and per-check or
per-trial rows.  Run it only at a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import oracles
import workloads
from worker import import_program

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1)


def _loop_areas(q, pts):
    """Nonzero det(x - z, y - z) by a plain triple loop (small sets only)."""
    out = set()
    for z in pts:
        for x in pts:
            a0, a1 = x[0] - z[0], x[1] - z[1]
            for y in pts:
                out.add((a0 * (y[1] - z[1]) - a1 * (y[0] - z[0])) % q)
    out.discard(0)
    return len(out)


def cross_check(zq, argv, rows) -> list[str]:
    """Recompute each trial's statistic from the trial's own point set."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    kind, p, l = opts["--kind"], int(opts["--p"]), int(opts["--l"])
    cfg = zq.harness.ExperimentConfig(
        p=p, l=l, kind=kind, source=zq.harness.SetSource.parse(opts["--set"]),
        d=int(opts["--d"]), trials=int(opts["--trials"]), seed=int(opts["--seed"]),
    )
    notes = []
    for trial, (size, stat, passed) in enumerate(rows):
        pts = zq.harness.generate_set(cfg, trial).points
        q = p**l
        if kind == "v2" and len(pts) <= 300:
            want, how = _loop_areas(q, pts), "triple loop"
        else:
            want, how = oracles.STATISTIC[kind](q, pts), oracles.STATISTIC[kind].__name__
        if (len(pts), want) != (size, stat) or passed != (want >= oracles.bound(kind, p, l)):
            sys.exit(f"oracle disagrees on {argv}: {how} gives {want}, program {stat}")
        notes.append(f"{kind} q={q} n={size}: {stat} ({how} agrees)")
    return notes


def main() -> int:
    zq = import_program()
    golden: dict = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("lemma-ladder", "threshold-stats"):
                for op in workloads.build(zq, name, seed, tmp):
                    code, text = op.run()
                    report = json.loads(text)
                    if name == "lemma-ladder":
                        entry = {"exit": code, "checks": [
                            [c["name"], c["statistic"], c["universe"], c["pass"], c["skipped"]]
                            for c in report["checks"]
                        ]}
                    else:
                        entry = {"exit": code, "trials": workloads._trial_rows(report)}
                        for note in cross_check(zq, op.argv, entry["trials"]):
                            print(f"seed {seed}: {note}")
                    known = golden.setdefault(name, {}).setdefault(op.label, entry)
                    if known != entry:
                        sys.exit(f"{op.label} differs between seeds: {known} vs {entry}")
                    print(f"seed {seed}: {op.label}: exit {code}")
    t2_full = golden["threshold-stats"]["t2 Z_9 full x1"]["trials"][0][1]
    if t2_full != 561:
        sys.exit(f"t2 on the full Z_9 grid is {t2_full}, expected 561")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
