"""Vectors, spheres, strata, and origin lines of the plane over Z_q.

Vectors are tuples of canonical residues.  A line is the cyclic
submodule spanned by one generator; the stratum of a vector is the
exact power of p dividing both coordinates, which splits the punctured
plane into annuli that the line census is organized around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ring import Modulus

__all__ = [
    "DimensionMismatch",
    "Line",
    "Vec",
    "average_line_points",
    "det2",
    "dot",
    "incidence_census",
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

# bytes of one block of the sphere scan's norm table
_CHUNK_BYTES = 1 << 23
# strata whose line census stays cached: the four moduli of Z_81, Z_121,
# Z_125 and Z_243 together have 14
_LINE_CACHE_STRATA = 16


class DimensionMismatch(ValueError):
    """Vector arguments live in different (or unsupported) dimensions."""


def vadd(m: Modulus, u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"sum of a {len(u)}-vector and a {len(v)}-vector")
    return tuple((a + b) % m.q for a, b in zip(u, v))


def vsub(m: Modulus, u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"difference of a {len(u)}-vector and a {len(v)}-vector")
    return tuple((a - b) % m.q for a, b in zip(u, v))


def norm(m: Modulus, v: Vec) -> int:
    """Sum of squared coordinates mod q (a quadratic form, not a metric)."""
    return sum(c * c for c in v) % m.q


def dot(m: Modulus, u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of a {len(u)}-vector with a {len(v)}-vector")
    return sum(a * b for a, b in zip(u, v)) % m.q


def det2(m: Modulus, u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
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
    step = max(1, _CHUNK_BYTES // (8 * len(rest)))
    out: list[Vec] = []
    for x0 in range(0, q, step):
        total = sq[x0 : x0 + step, None] + rest
        hit = (total == j) | (total == j + q)
        idx = np.argwhere(hit.reshape((-1,) + (q,) * (d - 1)))
        idx[:, 0] += x0
        out.extend(map(tuple, idx.tolist()))
    return tuple(out)


def stratum_of(m: Modulus, v: Vec) -> int:
    """Exact power of p dividing every coordinate (l for the zero vector)."""
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


def stratum_coords(m: Modulus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (a, b) with stratum_points(m, n) = p**n * (a, b), in the
    same order, as two int64 arrays of |Lambda_n| entries: a, b < p**(l-n)
    and at least one of them a unit."""
    if not 0 <= n <= m.l - 1:
        raise ValueError(f"stratum index must lie in [0, {m.l - 1}], got {n}")
    w = m.p ** (m.l - n)
    a, b = np.divmod(np.arange(w * w, dtype=np.int64), w)
    keep = (a % m.p != 0) | (b % m.p != 0)
    return a[keep], b[keep]


def stratum_points(m: Modulus, n: int) -> tuple[Vec, ...]:
    """All plane vectors with both coordinates exactly divisible by p**n."""
    a, b = stratum_coords(m, n)
    pn = m.p**n
    return tuple(zip((pn * a).tolist(), (pn * b).tolist()))


@dataclass(frozen=True)
class Line:
    """Cyclic submodule of Z_q^2 spanned by a canonical generator.

    Points are materialized on demand; membership solves for the scalar
    directly, so it costs one modular inversion at most.
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
        if len(v) != 2:
            return False
        p, q = self.m.p, self.m.q
        pn = p**self.stratum
        v0, v1 = v[0] % q, v[1] % q
        if v0 % pn or v1 % pn:
            return False
        w = p ** (self.m.l - self.stratum)
        a0, b0 = self.generator[0] // pn, self.generator[1] // pn
        w0, w1 = (v0 // pn) % w, (v1 // pn) % w
        if a0 == 1:
            return (w0 * b0) % w == w1
        if b0 == 1:
            return (w1 * a0) % w == w0
        if a0 % p:
            t = (w0 * pow(a0, -1, w)) % w
            return (t * b0) % w == w1
        t = (w1 * pow(b0, -1, w)) % w
        return (t * a0) % w == w0


def spanned_line(m: Modulus, v: Vec) -> Line:
    """The line through v and the origin, in canonical-generator form.

    A stratum-n vector is p**n times a vector with a unit coordinate;
    scaling by that unit's inverse normalizes the generator to
    p**n * (1, c) or, when the first coordinate stays divisible by p,
    to p**n * (c', 1).  Two vectors span the same line exactly when
    they normalize to the same generator.
    """
    if len(v) != 2:
        raise DimensionMismatch("lines live in the plane")
    v = (v[0] % m.q, v[1] % m.q)
    if v == (0, 0):
        raise ValueError("the zero vector spans no line")
    n = stratum_of(m, v)
    pn, w = m.p**n, m.p ** (m.l - n)
    a0, b0 = v[0] // pn, v[1] // pn
    if a0 % m.p:
        g0 = (1, (b0 * pow(a0, -1, w)) % w)
    else:
        g0 = ((a0 * pow(b0, -1, w)) % w, 1)
    return Line(m, (pn * g0[0], pn * g0[1]), n)


def _spanned_generators(m: Modulus, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Code g0 * q + g1 of spanned_line(m, p**n * (a, b)).generator for each
    stratum-n vector given by its coordinates (a, b) from stratum_coords."""
    p, w = m.p, m.p ** (m.l - n)
    inv = np.array([pow(u, -1, w) if u % p else 0 for u in range(w)], dtype=np.int64)
    unit = a % p != 0
    g0 = np.where(unit, 1, a * inv[b] % w)
    g1 = np.where(unit, b * inv[a] % w, 1)
    pn = p**n
    return pn * g0 * m.q + pn * g1


@lru_cache(maxsize=_LINE_CACHE_STRATA)
def lines_in_stratum(m: Modulus, n: int) -> tuple[Line, ...]:
    """All distinct lines spanned by stratum-n vectors, sorted by generator.

    Every stratum vector is normalized to its canonical generator, as
    spanned_line does, and only the distinct generators become lines.
    """
    # sort and keep run heads; np.unique would import numpy.ma on first use
    codes = np.sort(_spanned_generators(m, n, *stratum_coords(m, n)))
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    g0, g1 = np.divmod(codes, m.q)
    return tuple(Line(m, gen, n) for gen in zip(g0.tolist(), g1.tolist()))


def lines_through(m: Modulus, v: Vec) -> tuple[Line, ...]:
    """Full-length lines containing v, by scanning the whole stratum-0 census."""
    v = tuple(c % m.q for c in v)
    if all(c == 0 for c in v):
        raise ValueError("the zero vector lies on every line")
    return tuple(line for line in lines_in_stratum(m, 0) if v in line)


def line_point_codes(lines, q: int) -> np.ndarray:
    """Points t * g (t < len(line)) of each line, as a row of distinct codes
    x * q + y in increasing order padded with q * q; equal sets give equal rows."""
    sizes = np.array([len(line) for line in lines])
    gens = np.array([line.generator for line in lines], dtype=np.int64)
    t = np.arange(sizes.max())
    rows = t * gens[:, :1] % q * q + t * gens[:, 1:] % q
    rows[t >= sizes[:, None]] = q * q
    rows.sort(axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = q * q
    rows.sort(axis=1)
    return rows


def incidence_census(m: Modulus) -> np.ndarray:
    """hits[x, y] = number of full-length lines through (x, y), whole plane at once.

    One bincount over the point codes of the lines in the stratum-0
    census, each line counted at most once per point.
    """
    q = m.q
    codes = line_point_codes(lines_in_stratum(m, 0), q)
    return np.bincount(codes.ravel(), minlength=q * q + 1)[: q * q].reshape(q, q)


def average_line_points(m: Modulus) -> Fraction:
    """Mean number of points per line across all strata (diagnostic only)."""
    sizes = [len(line) for n in range(m.l) for line in lines_in_stratum(m, n)]
    return Fraction(sum(sizes), len(sizes))
