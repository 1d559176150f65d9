"""Seeded experiments, the exhaustive lemma suite, and report emission.

Reports carry a stable schema (every pass flag is recomputable from the
recorded numbers) and serialize deterministically: two runs with the
same config differ only in the wall-time field.  Randomness comes from a
small counter-based generator (SplitMix64), so a (seed, trial) pair
reproduces the same point set on any platform and Python build.
"""

from __future__ import annotations

import functools
import operator
import re
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from statistics import fmean
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, orthogroup
from .configsets import (
    FULL_GRID_CAP,
    PointSet,
    _check_dimension,
    difference_stratum_census,
    difference_stratum_counts,
    dot_product_count,
    triangle_area_count,
)
from .orthogroup import _OP_CAP
from .ring import Modulus, Polynomial, hensel_lift_root

__all__ = [
    "CSV_HEADER",
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "LEMMAS",
    "LemmaCheck",
    "Report",
    "SetSource",
    "SplitMix64",
    "TrialRecord",
    "conclusion_bound",
    "format_pointset",
    "generate_set",
    "meets_hypothesis",
    "parse_pointset",
    "random_subset",
    "read_pointset_file",
    "report_to_csv",
    "report_to_json",
    "run_lemma_suite",
    "run_theorem_experiment",
    "size_threshold",
    "trial_rng",
    "write_pointset_file",
    "write_report",
]

SCHEMA_VERSION = 1
EXPERIMENT_KINDS = ("t2", "v2", "dotprod")
CSV_HEADER = ("trial", "set_size", "statistic", "bound", "pass")

# the suite refuses planes beyond this many points, and individual
# checks whose scan would exceed the op budget report themselves skipped
SUITE_PLANE_CAP = 10**6


# ---------------------------------------------------------------------------
# deterministic RNG

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# uint64 scalars for the array mix, made once: numpy scalars cost a
# constructor call each time they are built
_U64 = {c: np.uint64(c) for c in (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31)}


def _mix64(z: int) -> int:
    # output scrambler of the SplitMix64 generator
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array, in place; array arithmetic wraps mod 2**64."""
    z ^= z >> _U64[30]
    z *= _U64[0xBF58476D1CE4E5B9]
    z ^= z >> _U64[27]
    z *= _U64[0x94D049BB133111EB]
    z ^= z >> _U64[31]
    return z


class SplitMix64:
    """Steele-Lea-Flood SplitMix64; tiny, seedable, platform-independent."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform draw from range(n), by rejection so there is no modulo bias."""
        if n <= 0:
            raise ValueError(f"need a positive range, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def trial_rng(seed: int, trial: int) -> SplitMix64:
    """Independent stream for (seed, trial); an extra mix decorrelates trials."""
    return SplitMix64(_mix64(seed ^ _mix64(trial + 1)))


def _draw_below(rng: SplitMix64, spans: np.ndarray) -> np.ndarray:
    """[rng.below(s) for s in spans], drawn as whole vectors.

    The t-th draw after state s is _mix64(s + t * gamma), so a run of draws
    is one uint64 array expression.  below(s) rejects u >= 2**64 - r with
    r = 2**64 mod s, that is it accepts u <= ~r; a rejected draw is skipped
    and the spans after it move one place along the stream, so each pass
    keeps the draws before the first rejection and starts over behind it.
    The spans must be positive and below 2**64.
    """
    spans = np.asarray(spans, dtype=np.uint64)
    accept_max = ~(-spans % spans)
    out = np.empty_like(spans)
    state, done = rng._state, 0
    while done < len(spans):
        u = np.arange(1, len(spans) - done + 1, dtype=np.uint64)
        u *= _U64[_GAMMA]
        u += np.uint64(state)
        _mix64_array(u)
        rejected = u > accept_max[done:]
        kept = int(rejected.argmax()) if rejected.any() else len(u)
        out[done : done + kept] = u[:kept]
        used = kept + 1 if kept < len(u) else kept
        state = (state + used * _GAMMA) & _MASK
        done += kept
    rng._state = state
    return out % spans


def _sample_indices(rng: SplitMix64, n: int, k: int) -> list[int]:
    """First k entries of a Fisher-Yates shuffle of range(n).

    Only displaced entries are stored, so the cost is O(k) whatever n is.
    """
    draws = _draw_below(rng, np.arange(n, n - k, -1, dtype=np.uint64))
    moved: dict[int, int] = {}
    out = []
    for i, r in enumerate(draws.tolist()):
        j = i + r
        out.append(moved.get(j, j))
        moved[j] = moved.pop(i, i)
    return out


def random_subset(m: Modulus, d: int, size: int, seed: int, trial: int = 0) -> PointSet:
    """Uniform size-k subset of the grid, reproducible from (seed, trial).

    The points are the first k entries of a Fisher-Yates shuffle of
    range(q**d) under trial_rng(seed, trial), unranked big-endian, so the
    sorted indices list the points in lexicographic order.
    """
    _check_dimension(d)
    total = m.q**d
    if total > FULL_GRID_CAP:
        raise ValueError(f"grid Z_{m.q}^{d} exceeds the {FULL_GRID_CAP}-point sampling cap")
    if not 0 <= size <= total:
        raise ValueError(f"subset size {size} does not fit in the {total}-point grid")
    chosen = np.array(_sample_indices(trial_rng(seed, trial), total, size), dtype=np.int64)
    chosen.sort()
    powers = m.q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return PointSet._from_sorted(m, d, chosen[:, None] // powers % m.q)


# ---------------------------------------------------------------------------
# point-set files

def format_pointset(ps: PointSet) -> str:
    lines = [f"q={ps.m.q} d={ps.d}"]
    lines.extend(",".join(str(c) for c in pt) for pt in ps.points)
    return "\n".join(lines) + "\n"


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str, lineno: int) -> int:
    """int() restricted to plain ASCII decimals: no '_' separators, no other digits."""
    token = token.strip()
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"line {lineno}: {token!r} is not a decimal integer")
    return int(token)


def parse_pointset(text: str) -> PointSet:
    """Parse the on-disk format: a 'q=<q> d=<d>' header, one point per line,
    comma-separated decimal residues, '#' starting a comment."""
    header: tuple[int, int] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            fields = {}
            for token in line.split():
                key, sep, val = token.partition("=")
                if not sep:
                    raise ValueError(f"line {lineno}: bad header token {token!r}")
                if key in fields:
                    raise ValueError(f"line {lineno}: header sets {key} twice")
                fields[key] = val
            if set(fields) != {"q", "d"}:
                raise ValueError(f"line {lineno}: header must set exactly q and d")
            header = (_decimal(fields["q"], lineno), _decimal(fields["d"], lineno))
            continue
        rows.append(tuple(_decimal(tok, lineno) for tok in line.split(",")))
    if header is None:
        raise ValueError("missing 'q=<q> d=<d>' header line")
    q, d = header
    m = Modulus.from_q(q)
    for row in rows:
        if len(row) != d:
            raise ValueError(f"point {row} is not {d}-dimensional")
        if any(not 0 <= c < q for c in row):
            raise ValueError(f"point {row} has a residue outside [0, {q})")
    return PointSet(m, d, tuple(rows))


def read_pointset_file(path) -> PointSet:
    return parse_pointset(Path(path).read_text())


def write_pointset_file(path, ps: PointSet) -> None:
    Path(path).write_text(format_pointset(ps))


# ---------------------------------------------------------------------------
# experiment configuration

@dataclass(frozen=True)
class SetSource:
    """Where experiment point sets come from.

    Modes: random (fresh seeded draw per trial), product / file (read
    once from disk, identical across trials), full (the whole grid).
    """

    mode: str
    size: int | None = None
    path: str | None = None

    @classmethod
    def parse(cls, text: str) -> "SetSource":
        if text == "full":
            return cls("full")
        mode, sep, arg = text.partition(":")
        if sep and mode == "random":
            try:
                return cls("random", size=int(arg))
            except ValueError:
                raise ValueError(f"bad random size in set source {text!r}") from None
        if sep and arg and mode in ("product", "file"):
            return cls(mode, path=arg)
        raise ValueError(
            f"bad set source {text!r}; expected random:N, product:FILE, file:PATH, or full"
        )

    def spec_string(self) -> str:
        if self.mode == "full":
            return "full"
        if self.mode == "random":
            return f"random:{self.size}"
        return f"{self.mode}:{self.path}"


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    l: int
    kind: str
    source: SetSource
    d: int = 2
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.d < 1:
            raise ValueError(f"dimension must be at least 1, got {self.d}")
        if self.kind in ("t2", "v2") and self.d != 2:
            raise ValueError(f"kind {self.kind} is planar; got d={self.d}")
        Modulus(self.p, self.l)  # validates p and l eagerly

    @property
    def modulus(self) -> Modulus:
        return Modulus(self.p, self.l)

    def echo(self) -> dict:
        return {
            "p": self.p,
            "l": self.l,
            "q": self.p**self.l,
            "d": self.d,
            "kind": self.kind,
            "set": self.source.spec_string(),
            "trials": self.trials,
            "seed": self.seed,
        }


def generate_set(cfg: ExperimentConfig, trial: int) -> PointSet:
    """Materialize the trial's point set from the configured source."""
    m = cfg.modulus
    src = cfg.source
    if src.mode == "full":
        return PointSet.full_grid(m, cfg.d)
    if src.mode == "random":
        return random_subset(m, cfg.d, src.size, cfg.seed, trial)
    ps = read_pointset_file(src.path)
    if ps.m.q != m.q:
        raise ValueError(f"set file has q={ps.m.q}, config has q={m.q}")
    if src.mode == "product":
        if ps.d != 1:
            raise ValueError(f"product source needs a 1-dimensional base file, got d={ps.d}")
        return PointSet.product(m, (pt[0] for pt in ps), cfg.d)
    if ps.d != cfg.d:
        raise ValueError(f"set file has d={ps.d}, config has d={cfg.d}")
    return ps


# ---------------------------------------------------------------------------
# thresholds and theorem bounds, in exact arithmetic

def _iroot_ceil(n: int, k: int) -> int:
    """Smallest s with s**k >= n."""
    if n <= 0:
        return 0
    s = max(1, round(n ** (1.0 / k)))  # float guess, then exact adjustment
    while s**k >= n:
        s -= 1
    while s**k < n:
        s += 1
    return s


def size_threshold(kind: str, m: Modulus, d: int = 2) -> int:
    """Smallest set size meeting the theorem hypothesis, exactly."""
    p, l = m.p, m.l
    if kind == "t2":
        return _iroot_ceil(3 * p ** (6 * l - 1), 3)
    if kind == "v2":
        return isqrt(p ** (4 * l - 1)) + 1  # strict inequality
    if kind == "dotprod":
        target = p ** (d * (2 * l - 1) + 1)
        r = isqrt(target)
        return r if r * r == target else r + 1
    raise ValueError(f"unknown kind {kind!r}")


def meets_hypothesis(kind: str, m: Modulus, d: int, size: int) -> bool:
    return size >= size_threshold(kind, m, d)


def conclusion_bound(kind: str, m: Modulus) -> Fraction:
    """Lower bound the theorem asserts for the statistic."""
    q, p = m.q, m.p
    if kind == "t2":
        return Fraction((q**3 + 1) // 2)  # ceil(q**3 / 2), q odd
    if kind == "v2":
        return Fraction(q * (1 + p), 4 * p) - 1
    if kind == "dotprod":
        return Fraction(q, 2)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# reports

@dataclass
class TrialRecord:
    trial: int
    set_size: int
    statistic: int
    threshold: int
    meets_threshold: bool
    bound: float
    passed: bool
    ratio: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        if self.ratio is None:
            del out["ratio"]
        return out


_COMPARE = {"eq": operator.eq, "le": operator.le, "ge": operator.ge}


@dataclass
class LemmaCheck:
    index: int
    name: str
    statement: str
    universe: int
    statistic: int
    bound: int
    cmp: str  # "le", "ge", or "eq", applied as statistic <cmp> bound
    witness: str
    skipped: bool = False
    note: str = ""
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = _COMPARE[self.cmp](self.statistic, self.bound)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


@dataclass
class Report:
    kind: str  # "experiment" or "lemmas"
    config: dict
    trials: list[TrialRecord] = field(default_factory=list)
    checks: list[LemmaCheck] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    schema: int = SCHEMA_VERSION

    @property
    def all_passed(self) -> bool:
        if self.kind == "experiment":
            return all(r.passed for r in self.trials)
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "config": self.config,
            "trials": [r.to_dict() for r in self.trials],
            "checks": [c.to_dict() for c in self.checks],
            "aggregate": self.aggregate,
            "diagnostics": self.diagnostics,
            "wall_time_s": self.wall_time_s,
        }


def report_to_json(report: Report) -> str:
    import json

    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _csv_num(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:g}"


def report_to_csv(report: Report) -> str:
    """Flat per-record view; lemma reports map checks onto the same header
    (trial = check index, set_size = exhausted universe size)."""
    lines = [",".join(CSV_HEADER)]
    if report.kind == "experiment":
        rows = [
            (r.trial, r.set_size, r.statistic, r.bound, r.passed) for r in report.trials
        ]
    else:
        rows = [
            (c.index, c.universe, c.statistic, c.bound, c.passed) for c in report.checks
        ]
    lines.extend(",".join(_csv_num(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_report(report: Report, path, fmt: str = "json") -> None:
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# theorem experiments

def _experiment_statistic(kind: str, m: Modulus, E: PointSet) -> int:
    if kind == "t2":
        return orthogroup.triangle_class_count(m, E.as_array())
    if kind == "v2":
        return triangle_area_count(E)
    return dot_product_count(E)


def run_theorem_experiment(cfg: ExperimentConfig) -> Report:
    """Run the configured trials and compare each statistic to the bound.

    A trial whose set misses the size hypothesis still runs; the record
    keeps meets_threshold false so the shortfall is visible.  For the
    dot-product kind the hypothesis also requires a product-shaped set.
    """
    t0 = time.perf_counter()
    m = cfg.modulus
    bound = conclusion_bound(cfg.kind, m)
    threshold = size_threshold(cfg.kind, m, cfg.d)
    records = []
    for trial in range(cfg.trials):
        E = generate_set(cfg, trial)
        stat = _experiment_statistic(cfg.kind, m, E)
        meets = E.size >= threshold
        if cfg.kind == "dotprod":
            meets = meets and E.base is not None
        records.append(
            TrialRecord(
                trial=trial,
                set_size=E.size,
                statistic=stat,
                threshold=threshold,
                meets_threshold=meets,
                bound=float(bound),
                passed=Fraction(stat) >= bound,
                ratio=stat / m.q if cfg.kind == "dotprod" else None,
            )
        )
    stats = [r.statistic for r in records]
    aggregate = {
        "statistic_min": min(stats),
        "statistic_max": max(stats),
        "statistic_mean": fmean(stats),
        "all_meet_hypothesis": all(r.meets_threshold for r in records),
    }
    if cfg.kind == "dotprod":
        aggregate["min_ratio"] = min(stats) / m.q
    return Report(
        kind="experiment",
        config=cfg.echo(),
        trials=records,
        aggregate=aggregate,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the lemma suite
#
# A lemma is one LEMMAS row (name, comparison, statement) plus the check
# it names.  A check returns an Outcome, or a skip note, for each row it
# decides, and _lemma_check turns those into LemmaCheck rows.


class Outcome(NamedTuple):
    """What a check measured: statistic <cmp> bound over universe cases."""

    universe: int
    statistic: int
    bound: int
    witness: str = ""


class Lemma(NamedTuple):
    name: str
    cmp: str  # "le", "ge", or "eq"
    check: Callable[[Modulus], LemmaCheck | list[LemmaCheck]]
    statement: str


def _row(index: int, lemma: Lemma, result: Outcome | str) -> LemmaCheck:
    if isinstance(result, str):
        return LemmaCheck(index, lemma.name, lemma.statement, 0, 0, 0, "eq", "",
                          skipped=True, note=result)
    universe, statistic, bound, witness = result
    return LemmaCheck(index, lemma.name, lemma.statement, universe, statistic, bound,
                      lemma.cmp, witness)


def _lemma_check(scan):
    """The check of the LEMMAS rows that name it, built on scan(m).

    scan returns an Outcome or a skip note for a single row, or a list of
    them, one per row, when one scan decides several adjacent rows.  A
    skipped row records 0 eq 0, so every row passes as statistic <cmp> bound.
    """

    @functools.wraps(scan)
    def check(m: Modulus) -> LemmaCheck | list[LemmaCheck]:
        found = scan(m)
        lemmas = [(i, lemma) for i, lemma in enumerate(LEMMAS) if lemma.check is check]
        results = found if isinstance(found, list) else [found]
        rows = [_row(i, lemma, r) for (i, lemma), r in zip(lemmas, results, strict=True)]
        return rows if isinstance(found, list) else rows[0]

    return check


@_lemma_check
def _check_unit_decomposition(m: Modulus) -> Outcome:
    fails, witness = 0, ""
    for x in range(1, m.q):
        v = m.valuation(x)
        u = x // m.p**v
        if not (m.is_unit(u) and u * m.p**v == x):
            fails += 1
            witness = witness or f"x={x}"
    return Outcome(m.q - 1, fails, 0, witness)


@_lemma_check
def _check_inverse_involution(m: Modulus) -> Outcome:
    fails, witness, units = 0, "", m.units()
    for x in units:
        inv = m.inverse(x)
        if (x * inv) % m.q != 1 or m.inverse(inv) != x:
            fails += 1
            witness = witness or f"x={x}"
    return Outcome(len(units), fails, 0, witness)


@_lemma_check
def _check_hensel_quadratics(m: Modulus) -> Outcome | str:
    p, q = m.p, m.q
    if p * p * q > _OP_CAP:
        return "quadratic sweep exceeds the op budget"
    fails, witness, tested = 0, "", 0
    for b in range(p):
        for c in range(p):
            f = Polynomial((c, b, 1))
            roots_q = [x for x in range(q) if f.eval_mod(x, q) == 0]
            for r in range(p):
                if f.eval_mod(r, p) != 0 or (2 * r + b) % p == 0:
                    continue
                tested += 1
                lifted = hensel_lift_root(f, r, m)
                if [x for x in roots_q if x % p == r] != [lifted]:
                    fails += 1
                    witness = witness or f"f=x^2+{b}x+{c}, r={r}"
    return Outcome(tested, fails, 0, witness)


@_lemma_check
def _check_stratum_sizes(m: Modulus) -> Outcome:
    fails, witness, total = 0, "", 0
    for n in range(m.l):
        size = len(geometry.stratum_coords(m, n)[0])
        total += size
        if size != geometry.stratum_size(m, n):
            fails += 1
            witness = witness or f"n={n}"
    if total != m.q**2 - 1:
        fails += 1
        witness = witness or "partition total"
    return Outcome(m.q**2 - 1, fails, 0, witness)


@_lemma_check
def _check_line_census(m: Modulus) -> Outcome:
    fails, witness, universe = 0, "", 0
    for n in range(m.l):
        lines = geometry.lines_in_stratum(m, n)
        universe += len(lines)
        if len(lines) != m.p ** (m.l - n) + m.p ** (m.l - n - 1):
            fails += 1
            witness = witness or f"census size, n={n}"
        if not lines:
            continue
        rows = geometry.line_point_codes(lines, m.q)
        sizes = np.array([len(line) for line in lines])
        short = np.flatnonzero((rows < m.q**2).sum(axis=1) != sizes)
        if len(short):
            fails += len(short)
            witness = witness or f"short line {lines[short[0]].generator}"
        rows = rows[np.lexsort(rows.T[::-1])]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            fails += 1
            witness = witness or f"duplicate point sets, n={n}"
    return Outcome(universe, fails, 0, witness)


@_lemma_check
def _check_point_line_incidence(m: Modulus) -> Outcome | str:
    # the census touches each point of the |L_0| = q + q/p full-length lines once
    if (m.q + m.q // m.p) * m.q > _OP_CAP:
        return "incidence census exceeds the op budget"
    hits = geometry.incidence_census(m)
    bad = hits != m.p ** geometry.stratum_table(m).astype(np.int64)
    bad[0, 0] = False
    fails, witness = int(bad.sum()), ""
    if fails:
        i, j = map(int, np.argwhere(bad)[0])
        witness = f"v={(i, j)}, hits={int(hits[i, j])}"
    return Outcome(m.q**2 - 1, fails, 0, witness)


@_lemma_check
def _sphere_checks(m: Modulus) -> list[Outcome]:
    s1 = len(geometry.sphere_points(m, 1, 2))
    group = len(orthogroup.so2_table(m))
    return [
        Outcome(m.q**2, group, s1, f"|SO_2|={group}, |S_1|={s1}"),
        Outcome(m.q**2, s1, (m.q + 1) // 2, f"|S_1|={s1}"),
        Outcome(m.q**2, s1, 2 * m.q, f"|S_1|={s1}"),
    ]


def _norm_table(m: Modulus) -> np.ndarray:
    x = np.arange(m.q, dtype=np.int64)
    return (x[:, None] ** 2 + x[None, :] ** 2) % m.q


@_lemma_check
def _check_group_axioms(m: Modulus) -> Outcome | str:
    g = orthogroup.so2_table(m)
    k, q = len(g), m.q
    if k**2 > _OP_CAP:
        return "pair products exceed the op budget"
    keys = np.sort(g[:, 0] * q + g[:, 1])

    def absent(a, b) -> np.ndarray:
        code = a * q + b
        return keys[np.searchsorted(keys, code).clip(max=k - 1)] != code

    def key(row) -> tuple[int, int]:
        return tuple(g[row].tolist())

    a, b = g[:, 0], g[:, 1]
    ib = -b % q
    bad = absent(a, ib) | ((a * a - b * ib) % q != 1) | ((b * a + a * ib) % q != 0)
    fails = int(bad.sum())
    witness = f"inverse of {key(bad.argmax())}" if fails else ""
    # compose row blocks of t against every u, t * u = (ta ua - tb ub, tb ua + ta ub)
    step = max(1, orthogroup._CHUNK_BYTES // (8 * k))
    for s in range(0, k, step):
        ta, tb = a[s : s + step, None], b[s : s + step, None]
        bad = absent((ta * a - tb * b) % q, (tb * a + ta * b) % q)
        n_bad = int(bad.sum())
        if n_bad:
            fails += n_bad
            if not witness:
                i, j = np.argwhere(bad)[0]
                witness = f"{key(s + i)} o {key(j)}"
    return Outcome(k**2, fails, 0, witness)


@_lemma_check
def _rotated_plane_checks(m: Modulus) -> list[Outcome | str]:
    """Norm invariance and both stabilizer bounds, from one pass over the
    rotated planes."""
    g = orthogroup.so2_table(m)
    if m.q**2 * len(g) > _OP_CAP:
        return ["plane-times-group scan exceeds the op budget"] * 3
    # the budget and |SO_2| >= q/2 keep q below 740, so rx**2 + ry**2 fits uint32
    q = np.uint32(m.q)
    norms = _norm_table(m).astype(np.uint32)
    counts = np.zeros((m.q, m.q), dtype=np.int64)
    fails, witness = 0, ""
    for t, rx, ry in orthogroup.rotated_planes(m):
        counts += orthogroup.fixed_points(rx, ry)
        img = np.square(rx, dtype=np.uint32)
        img += np.square(ry, dtype=np.uint32)
        img %= q
        bad = img != norms
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            fails += n_bad
            if not witness:
                i, j = map(int, np.argwhere(bad)[0])
                witness = f"theta={tuple(g[t].tolist())}, v=({i},{j})"
    return [Outcome(m.q**2 * len(g), fails, 0, witness), *_stabilizer_bounds(m, counts)]


def _stabilizer_bounds(m: Modulus, counts: np.ndarray) -> list[Outcome | str]:
    """The largest stabilizer off and on the zero-norm cone, from the table
    counts[x, y] = |Stab((x, y))|."""
    bound = m.p ** (m.l - 1)
    norms = _norm_table(m)
    nonzero = np.ones_like(norms, dtype=bool)
    nonzero[0, 0] = False

    def extremum(mask: np.ndarray) -> Outcome:
        masked = np.where(mask, counts, -1)
        best = int(masked.max())
        if best < 0:
            return Outcome(int(mask.sum()), 0, bound, "none (empty case set)")
        i, j = map(int, np.argwhere(masked == best)[0])
        return Outcome(int(mask.sum()), best, bound, f"xi=({i},{j})")

    if m.p % 4 != 3:
        return [extremum(nonzero & (norms != 0)),
                "bound needs p = 3 mod 4; zero-norm stabilizers can be large otherwise"]
    return [extremum(nonzero & (norms != 0)), extremum(nonzero & (norms == 0))]


@_lemma_check
def _check_zero_norm_structure(m: Modulus) -> Outcome | str:
    if m.p % 4 != 3:
        return "characterization needs p = 3 mod 4"
    zero_norm = _norm_table(m) == 0
    deep = 2 * geometry.stratum_table(m) >= m.l
    zero_norm[0, 0] = deep[0, 0] = False
    bad = zero_norm ^ deep
    fails, witness = int(bad.sum()), ""
    if fails:
        i, j = map(int, np.argwhere(bad)[0])
        witness = f"xi=({i},{j})"
    return Outcome(m.q**2 - 1, fails, 0, witness)


@_lemma_check
def _difference_checks(m: Modulus) -> list[Outcome | str]:
    _, r = difference_stratum_counts(m)
    weighted = Outcome(m.q**4, r, 2 * m.p ** (4 * m.l - 1), f"r={r}")
    if m.l == 1:
        return [weighted, "no strata above 0 when l = 1"]
    if m.q**4 > _OP_CAP:
        return [weighted, "pair enumeration exceeds the op budget"]
    census = difference_stratum_census(m)
    fails, witness = 0, ""
    for i in range(m.l):
        expected = m.q**2 * geometry.stratum_size(m, i)
        if census[i] != expected:
            fails += 1
            witness = witness or f"i={i}, census={census[i]}, formula={expected}"
    return [weighted, Outcome(m.q**4, fails, 0, witness)]


# the suite in report order; rows that share a check are adjacent
LEMMAS = (
    Lemma("unit_valuation_decomposition", "eq", _check_unit_decomposition,
          "every nonzero x in Z_q equals p**v(x) times a unit"),
    Lemma("unit_inverse_involution", "eq", _check_inverse_involution,
          "x * x^-1 = 1 and (x^-1)^-1 = x for every unit x"),
    Lemma("hensel_quadratic_lifts", "eq", _check_hensel_quadratics,
          "each simple root mod p of x^2 + b x + c lifts to exactly one root mod q"),
    Lemma("stratum_partition_sizes", "eq", _check_stratum_sizes,
          "the strata partition the punctured plane with |Lambda_n| = p^(2(l-n)) - p^(2(l-n-1))"),
    Lemma("line_census_sizes", "eq", _check_line_census,
          "|L_n| = p^(l-n) + p^(l-n-1) distinct lines of p^(l-n) points each"),
    Lemma("point_line_incidence", "eq", _check_point_line_incidence,
          "every stratum-n vector lies on exactly p^n full-length lines"),
    Lemma("sphere_matches_group", "eq", _sphere_checks, "|SO_2(Z_q)| = |S_1|"),
    Lemma("sphere_size_lower", "ge", _sphere_checks, "|S_1| >= q/2"),
    Lemma("sphere_size_upper", "le", _sphere_checks, "|S_1| <= 2q"),
    Lemma("group_closure_inverses", "eq", _check_group_axioms,
          "SO_2(Z_q) is closed under composition and inverse, with identity (1, 0)"),
    Lemma("rotation_norm_invariance", "eq", _rotated_plane_checks,
          "||theta(v)|| = ||v|| for every rotation theta and plane vector v"),
    Lemma("stabilizer_bound_nonzero_norm", "le", _rotated_plane_checks,
          "max |Stab(xi)| over xi with ||xi|| != 0 is <= p^(l-1)"),
    Lemma("stabilizer_bound_zero_norm", "le", _rotated_plane_checks,
          "max |Stab(xi)| over nonzero xi with ||xi|| = 0 is <= p^(l-1)"),
    Lemma("zero_norm_stratum_form", "eq", _check_zero_norm_structure,
          "for p = 3 mod 4, nonzero xi has ||xi|| = 0 iff its stratum m satisfies 2m >= l"),
    Lemma("difference_weighted_bound", "le", _difference_checks,
          "r = sum_i r_i p^i over i = 1..l-1 is <= 2 p^(4l-1)"),
    Lemma("difference_census_match", "eq", _difference_checks,
          "pair census of difference strata matches r_i = q^2 |Lambda_i|"),
)


def run_lemma_suite(m: Modulus) -> Report:
    """Exhaustively verify the structural facts the theorems lean on.

    Each check names the claim it verifies in its statement string and
    records the exhausted universe, the extremal or mismatch statistic,
    and a witness.  Checks whose preconditions fail (p = 1 mod 4 cases)
    or whose scans exceed the op budget report themselves skipped.
    """
    t0 = time.perf_counter()
    if m.q**2 > SUITE_PLANE_CAP:
        raise ValueError(
            f"plane over {m} has {m.q**2} points, beyond the exhaustive cap {SUITE_PLANE_CAP}"
        )
    checks: list[LemmaCheck] = []
    for i, lemma in enumerate(LEMMAS):
        if i == len(checks):  # a shared check has filled its later rows already
            found = lemma.check(m)
            checks.extend(found if isinstance(found, list) else [found])
    aggregate = {
        "passed": sum(1 for c in checks if c.passed and not c.skipped),
        "failed": sum(1 for c in checks if not c.passed),
        "skipped": sum(1 for c in checks if c.skipped),
    }
    diagnostics = {"average_line_points": float(geometry.average_line_points(m))}
    return Report(
        kind="lemmas",
        config={"p": m.p, "l": m.l, "q": m.q},
        checks=checks,
        aggregate=aggregate,
        diagnostics=diagnostics,
        wall_time_s=time.perf_counter() - t0,
    )
