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
    SetSource,
    _decimal,
    format_pointset,
    random_subset,
    run_lemma_suite,
    run_theorem_experiment,
    write_pointset_file,
    write_report,
)
from .ring import Modulus


def _integer(text: str) -> int:
    """argparse type for integer options, as strict as the set-file parser."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_modulus_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=_integer, required=True, help="odd prime base")
    sub.add_argument("--l", type=_integer, required=True, help="exponent, q = p**l")


# built once per process: argparse spends about a millisecond per build on
# formatters and message catalogues, and parse_args keeps no state in it
@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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
    exp.add_argument("--d", type=_integer, default=2, help="ambient dimension (dotprod only)")
    exp.add_argument(
        "--set",
        dest="set_source",
        required=True,
        help="point-set source: random:N, product:FILE, file:PATH, or full",
    )
    exp.add_argument("--trials", type=_integer, default=1)
    exp.add_argument("--seed", type=_integer, default=0)
    exp.add_argument("--out", help="write the report here instead of stdout")
    exp.add_argument("--format", choices=("json", "csv"), default="json")

    gen = commands.add_parser("gen-set", help="emit a point-set file")
    _add_modulus_args(gen)
    gen.add_argument("--d", type=_integer, default=2)
    pick = gen.add_mutually_exclusive_group(required=True)
    pick.add_argument("--size", type=_integer, help="random subset of this size")
    pick.add_argument("--full", action="store_true", help="the whole grid")
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--trial", type=_integer, default=0)
    gen.add_argument("--out", help="write the set here instead of stdout")

    return parser, {"verify-lemmas": lemmas, "experiment": exp, "gen-set": gen}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:  # its own parser skips the top-level parser's pass
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # no command, -h, or an unknown one: the top-level parser reports it
        args = parser.parse_args(argv)
    try:
        if args.command == "verify-lemmas":
            report = run_lemma_suite(Modulus(args.p, args.l))
            write_report(report, args.out, args.format)
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
            write_report(report, args.out, args.format)
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
