"""Vectors, spheres, strata, and origin lines of the plane over Z_q.

Vectors are tuples of canonical residues.  A line is the cyclic
submodule spanned by one generator; the stratum of a vector is the
exact power of p dividing both coordinates, which splits the punctured
plane into annuli that the line census is organized around.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _census
from .ring import Modulus

__all__ = [
    "DimensionMismatch",
    "Line",
    "Vec",
    "average_line_points",
    "det2",
    "dot",
    "incidence_census",
    "line_generators",
    "line_point_codes",
    "lines_in_stratum",
    "lines_through",
    "norm",
    "spanned_line",
    "sphere_points",
    "stratum_coords",
    "stratum_of",
    "stratum_points",
    "stratum_size",
    "stratum_table",
    "vadd",
    "valuation_table",
    "vsub",
]

Vec = tuple[int, ...]

# strata whose coordinates, line census and line point rows stay cached:
# the four moduli of Z_81, Z_121, Z_125 and Z_243 together have 14
_LINE_CACHE_STRATA = 16


class DimensionMismatch(ValueError):
    """Vector arguments live in different (or unsupported) dimensions."""


def _read_points(m: Modulus, d: int, points) -> np.ndarray:
    """Caller points as an (n, d) int64 array of residues in [0, q): an (n, d) integer
    array, or an iterable of d-coordinate points, not all bools (np.asarray reads those as
    a bool table), whose coordinates pass operator.index and fit int64.  DimensionMismatch
    refuses a wrong d, ValueError any other point; a reduced int64 array comes back as is."""
    if not isinstance(points, np.ndarray):
        pts, flat = list(points), itertools.chain.from_iterable
        try:
            if bad := set(map(len, pts)) - {d}:
                raise DimensionMismatch(f"need {d}-dimensional points, got one of length {min(bad)}")
            if pts and all(isinstance(c, bool) for c in flat(pts)):
                raise TypeError("bools alone")
            points = np.fromiter(map(operator.index, flat(pts)), np.int64, len(pts) * d)
        except (TypeError, OverflowError) as err:
            raise ValueError(f"need integer {d}-dimensional points: {err}") from None
        return np.remainder(points, m.q, out=points).reshape(len(pts), d)
    if points.ndim != 2 or points.shape[1] != d:
        raise DimensionMismatch(f"need {d}-dimensional points, got an array of shape {points.shape}")
    if points.dtype.kind not in "iu":
        raise ValueError(f"need integer {d}-dimensional points, got {points.dtype}")
    # read as unsigned, a negative int64 is at least 2**63 > q
    if points.dtype == np.int64 and points.view(np.uint64).max(initial=0) < m.q:
        return points
    # unsigned values reduce in uint64, so none past 2**63 wraps; signed ones in int64
    wide = np.uint64 if points.dtype.kind == "u" else np.int64
    return (points.astype(wide, copy=False) % m.q).astype(np.int64, copy=False)


def vadd(m: Modulus, u: Vec, v: Vec) -> Vec:
    """u + v mod q.  Like the helpers below, it takes residues as given: they run
    inside the oracles' loops, where a _read_points call costs several times theirs."""
    if len(u) != len(v):
        raise DimensionMismatch(f"sum of a {len(u)}-vector and a {len(v)}-vector")
    return tuple((a + b) % m.q for a, b in zip(u, v))


def vsub(m: Modulus, u: Vec, v: Vec) -> Vec:
    """u - v mod q, of residues taken as given."""
    if len(u) != len(v):
        raise DimensionMismatch(f"difference of a {len(u)}-vector and a {len(v)}-vector")
    return tuple((a - b) % m.q for a, b in zip(u, v))


def norm(m: Modulus, v: Vec) -> int:
    """Sum of squared coordinates mod q (a quadratic form, not a metric); v is taken as given."""
    return sum(c * c for c in v) % m.q


def dot(m: Modulus, u: Vec, v: Vec) -> int:
    """u . v mod q, of residues taken as given."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of a {len(u)}-vector with a {len(v)}-vector")
    return sum(a * b for a, b in zip(u, v)) % m.q


def det2(m: Modulus, u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with columns u, v, of residues taken as given."""
    if len(u) != 2 or len(v) != 2:
        raise DimensionMismatch("det2 needs two plane vectors")
    return (u[0] * v[1] - u[1] * v[0]) % m.q


def sphere_points(m: Modulus, j: int, d: int) -> tuple[Vec, ...]:
    """All x in Z_q^d with norm j, by full scan, in lexicographic order.

    The norms of the trailing d - 1 coordinates form one table of q**(d-1)
    residues; blocks of leading squares are added to it (each sum is below
    2q, so norm j shows as j or j + q) and scanned with argwhere, whose
    row-major order is the lexicographic one.
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    q = m.q
    j %= q
    sq = np.arange(q, dtype=np.int64) ** 2 % q
    rest = np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        rest = (rest[:, None] + sq).ravel() % q
    out: list[Vec] = []
    for rs in _census._blocks(q, len(rest), _census._BLOCK_BYTES):
        total = sq[rs, None] + rest
        hit = (total == j) | (total == j + q)
        idx = np.argwhere(hit.reshape((-1,) + (q,) * (d - 1)))
        idx[:, 0] += rs.start
        out.extend(map(tuple, idx.tolist()))
    return tuple(out)


def stratum_of(m: Modulus, v: Vec) -> int:
    """Exact power of p dividing every coordinate (l for the zero vector); v is taken as given."""
    return min(m.valuation(c) for c in v)


def valuation_table(m: Modulus) -> np.ndarray:
    """v[x] = m.valuation(x) for every residue x, as uint8 (l at zero)."""
    v = np.zeros(m.q, dtype=np.uint8)
    for k in range(1, m.l + 1):
        v[:: m.p**k] += 1
    return v


def stratum_table(m: Modulus) -> np.ndarray:
    """strata[x, y] = stratum_of(m, (x, y)) over the whole plane, as uint8."""
    v = valuation_table(m)
    return np.minimum.outer(v, v)


def stratum_size(m: Modulus, n: int) -> int:
    """Closed-form count of stratum-n vectors."""
    if not 0 <= n <= m.l - 1:
        raise ValueError(f"stratum index must lie in [0, {m.l - 1}], got {n}")
    return m.p ** (2 * (m.l - n)) - m.p ** (2 * (m.l - n - 1))


@lru_cache(maxsize=_LINE_CACHE_STRATA)
def stratum_coords(m: Modulus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (a, b) with stratum_points(m, n) = p**n * (a, b), in the
    same order, as two read-only int64 arrays of |Lambda_n| entries:
    a, b < p**(l-n) and at least one of them a unit.

    They are the nonzero cells of the w x w mask of pairs with a unit
    entry, w = p**(l-n), listed row-major, that is in (a, b) order.
    """
    if not 0 <= n <= m.l - 1:
        raise ValueError(f"stratum index must lie in [0, {m.l - 1}], got {n}")
    unit = np.arange(m.p ** (m.l - n)) % m.p != 0
    a, b = np.nonzero(unit[:, None] | unit[None, :])
    a.flags.writeable = b.flags.writeable = False
    return a, b


def stratum_points(m: Modulus, n: int) -> tuple[Vec, ...]:
    """All plane vectors with both coordinates exactly divisible by p**n."""
    a, b = stratum_coords(m, n)
    pn = m.p**n
    return tuple(zip((pn * a).tolist(), (pn * b).tolist()))


@dataclass(frozen=True)
class Line:
    """Cyclic submodule of Z_q^2 spanned by a canonical generator p**n * g, g
    with a unit coordinate, as spanned_line and lines_in_stratum build it.

    Points are materialized on demand.  v lies on the line exactly when p**n
    divides both coordinates of v and det(g, v) = 0 mod q: if so, solving
    along g's unit coordinate gives v = s * g, and p**n | v gives p**n | s.
    A vector that _read_points refuses lies on no line.
    """

    m: Modulus
    generator: tuple[int, int]
    stratum: int

    def __len__(self) -> int:
        return self.m.p ** (self.m.l - self.stratum)

    def points(self) -> list[tuple[int, int]]:
        q = self.m.q
        a, b = self.generator
        return [((t * a) % q, (t * b) % q) for t in range(len(self))]

    def __contains__(self, v) -> bool:
        try:
            x, y = _read_points(self.m, 2, [v])[0].tolist()
        except ValueError:
            return False
        pn = self.m.p**self.stratum
        g0, g1 = self.generator[0] // pn, self.generator[1] // pn
        return x % pn == y % pn == 0 and (g0 * y - g1 * x) % self.m.q == 0


def spanned_line(m: Modulus, v: Vec) -> Line:
    """The line through v and the origin, in canonical-generator form.

    A stratum-n vector is p**n times a vector with a unit coordinate;
    scaling by that unit's inverse normalizes the generator to
    p**n * (1, c) or, when the first coordinate stays divisible by p,
    to p**n * (c', 1).  Two vectors span the same line exactly when
    they normalize to the same generator.
    """
    x, y = _read_points(m, 2, [v])[0].tolist()
    if x == y == 0:
        raise ValueError("the zero vector spans no line")
    n = stratum_of(m, (x, y))
    pn, w = m.p**n, m.p ** (m.l - n)
    a0, b0 = x // pn, y // pn
    if a0 % m.p:
        return Line(m, (pn, pn * (b0 * pow(a0, -1, w) % w)), n)
    return Line(m, (pn * (a0 * pow(b0, -1, w) % w), pn), n)


def _spanned_generators(m: Modulus, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Code g0 * q + g1 of spanned_line(m, p**n * (a, b)).generator for each
    stratum-n vector given by its coordinates (a, b) from stratum_coords.

    Scaling by the inverse of the unit coordinate leaves the other one as
    c = (b / a or a / b) mod w, from a product below w**2.
    """
    p, w, pn = m.p, m.p ** (m.l - n), m.p**n
    small = _census._int_dtype(w * w)
    inv = np.array([pow(u, -1, w) if u % p else 0 for u in range(w)], dtype=small)
    unit = inv[a] != 0
    c = np.where(unit, b, a).astype(small) * inv[np.where(unit, a, b)] % w
    c = pn * c.astype(np.int64)
    return np.where(unit, pn * m.q + c, c * m.q + pn)


@lru_cache(maxsize=_LINE_CACHE_STRATA)
def line_generators(m: Modulus, n: int) -> np.ndarray:
    """Codes g0 * q + g1 of the generators of all distinct lines spanned by
    stratum-n vectors, increasing, as a read-only int64 array.

    Every stratum vector is normalized to its canonical generator, as
    spanned_line does, and marked in a q**2 bitmap, whose marked cells are
    the distinct codes in order.
    """
    seen = np.zeros(m.q * m.q, dtype=bool)
    seen[_spanned_generators(m, n, *stratum_coords(m, n))] = True
    codes = np.flatnonzero(seen)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=_LINE_CACHE_STRATA)
def lines_in_stratum(m: Modulus, n: int) -> tuple[Line, ...]:
    """All distinct lines spanned by stratum-n vectors, sorted by generator."""
    g0, g1 = np.divmod(line_generators(m, n), m.q)
    return tuple(Line(m, gen, n) for gen in zip(g0.tolist(), g1.tolist()))


def lines_through(m: Modulus, v: Vec) -> tuple[Line, ...]:
    """Full-length lines containing v, by Line.__contains__'s determinant test
    on the whole stratum-0 census at once (p**0 divides every v)."""
    x, y = _read_points(m, 2, [v])[0].tolist()
    if x == y == 0:
        raise ValueError("the zero vector lies on every line")
    g0, g1 = np.divmod(line_generators(m, 0), m.q)
    return tuple(itertools.compress(lines_in_stratum(m, 0), (g0 * y - g1 * x) % m.q == 0))


def line_point_codes(m: Modulus, n: int, generators: np.ndarray) -> np.ndarray:
    """Points t * g (t < p**(l-n)) of the stratum-n line of each generator
    code g0 * q + g1, as a row of distinct codes x * q + y in increasing
    order padded with q * q; equal sets give equal rows.

    The read-only table is cached on the codes' bytes, so the line census
    check and incidence_census share one build per census, and other codes
    (a faulty census, say) get their own table.
    """
    return _point_rows(np.asarray(generators, dtype=np.int64).tobytes(), m.q, m.p ** (m.l - n))


@lru_cache(maxsize=_LINE_CACHE_STRATA)
def _point_rows(generators: bytes, q: int, size: int) -> np.ndarray:
    """line_point_codes for generator codes given as int64 bytes and lines
    of `size` points; products stay below q * q, and codes at most q * q."""
    small = _census._int_dtype(q * q + 1)
    g0, g1 = np.divmod(np.frombuffer(generators, dtype=np.int64).astype(small), q)
    t = np.arange(size, dtype=small)
    rows = t * g0[:, None] % q * q + t * g1[:, None] % q
    rows.sort(axis=1)
    repeated = rows[:, 1:] == rows[:, :-1]
    if repeated.any():  # a point listed twice: pad it out and sort again
        rows[:, 1:][repeated] = q * q
        rows.sort(axis=1)
    rows.flags.writeable = False
    return rows


def incidence_census(m: Modulus) -> np.ndarray:
    """hits[x, y] = number of full-length lines through (x, y), whole plane at once.

    One bincount over the point codes of the lines in the stratum-0
    census, each line counted at most once per point.
    """
    q = m.q
    codes = line_point_codes(m, 0, line_generators(m, 0))
    return np.bincount(codes.ravel(), minlength=q * q + 1)[: q * q].reshape(q, q)


def average_line_points(m: Modulus) -> Fraction:
    """Mean number of points per line across all strata (diagnostic only):
    sum_n |L_n| p**(l-n) over sum_n |L_n|."""
    counts = [len(line_generators(m, n)) for n in range(m.l)]
    points = sum(c * m.p ** (m.l - n) for n, c in enumerate(counts))
    return Fraction(points, sum(counts))
