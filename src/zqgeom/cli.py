"""Command-line front end.

Exit codes: 0 when every check or trial passes, 1 when any fails, and 2
for usage or configuration errors (argparse uses 2 on its own).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .configsets import PointSet
from .harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    Report,
    SetSource,
    format_pointset,
    random_subset,
    report_to_csv,
    report_to_json,
    run_lemma_suite,
    run_theorem_experiment,
    write_pointset_file,
    write_report,
)
from .ring import Modulus


def _add_modulus_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime base")
    sub.add_argument("--l", type=int, required=True, help="exponent, q = p**l")


# built once per process: argparse spends about a millisecond per build on
# formatters and message catalogues, and parse_args keeps no state in it
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqgeom",
        description="exact geometry and counting over Z_{p^l}, with verification harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lemmas = commands.add_parser("verify-lemmas", help="run the exhaustive lemma suite")
    _add_modulus_args(lemmas)
    lemmas.add_argument("--out", help="write the report here instead of stdout")
    lemmas.add_argument("--format", choices=("json", "csv"), default="json")

    exp = commands.add_parser("experiment", help="run a theorem-conclusion experiment")
    exp.add_argument("--kind", choices=EXPERIMENT_KINDS, required=True)
    _add_modulus_args(exp)
    exp.add_argument("--d", type=int, default=2, help="ambient dimension (dotprod only)")
    exp.add_argument(
        "--set",
        dest="set_source",
        required=True,
        help="point-set source: random:N, product:FILE, file:PATH, or full",
    )
    exp.add_argument("--trials", type=int, default=1)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", help="write the report here instead of stdout")
    exp.add_argument("--format", choices=("json", "csv"), default="json")

    gen = commands.add_parser("gen-set", help="emit a point-set file")
    _add_modulus_args(gen)
    gen.add_argument("--d", type=int, default=2)
    pick = gen.add_mutually_exclusive_group(required=True)
    pick.add_argument("--size", type=int, help="random subset of this size")
    pick.add_argument("--full", action="store_true", help="the whole grid")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trial", type=int, default=0)
    gen.add_argument("--out", help="write the set here instead of stdout")

    return parser


def _emit_report(report: Report, out: str | None, fmt: str) -> None:
    if out is None:
        text = report_to_json(report) if fmt == "json" else report_to_csv(report)
        sys.stdout.write(text)
    else:
        write_report(report, out, fmt)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-lemmas":
            report = run_lemma_suite(Modulus(args.p, args.l))
            _emit_report(report, args.out, args.format)
            return 0 if report.all_passed else 1

        if args.command == "experiment":
            cfg = ExperimentConfig(
                p=args.p,
                l=args.l,
                kind=args.kind,
                source=SetSource.parse(args.set_source),
                d=args.d,
                trials=args.trials,
                seed=args.seed,
            )
            report = run_theorem_experiment(cfg)
            _emit_report(report, args.out, args.format)
            return 0 if report.all_passed else 1

        m = Modulus(args.p, args.l)
        if args.full:
            ps = PointSet.full_grid(m, args.d)
        else:
            ps = random_subset(m, args.d, args.size, args.seed, args.trial)
        if args.out is None:
            sys.stdout.write(format_pointset(ps))
        else:
            write_pointset_file(args.out, ps)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
