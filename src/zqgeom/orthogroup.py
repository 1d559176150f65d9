"""The rotation group SO_2(Z_q), stabilizers, and triangle congruence."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .geometry import DimensionMismatch, vsub
from .ring import Modulus

__all__ = [
    "Rotation",
    "TriangleClass",
    "canonical_pair",
    "congruence_witness",
    "rotated_planes",
    "so2_elements",
    "so2_table",
    "stabilizer",
    "stabilizer_table",
    "triangle_class_count",
    "triangle_classes",
]

Vec2 = tuple[int, int]
Triangle = tuple[Vec2, Vec2, Vec2]

# moduli whose group stays cached; a sweep over moduli keeps only the latest
_GROUP_CACHE_SIZE = 8
# bytes of one working block of the orbit minima and the triangle census;
# also caps the dense (distinct differences)**2 count table, which at this
# size still holds the full Z_27 grid's 729**2 pairs
_CHUNK_BYTES = 1 << 23


@dataclass(frozen=True)
class Rotation:
    """The matrix [[a, -b], [b, a]] with a**2 + b**2 = 1 mod q.

    Composition is complex multiplication of a + bi, and the transpose
    (conjugate) is the inverse, so the group structure never needs
    generic 2x2 matrix code.
    """

    a: int
    b: int
    m: Modulus

    def apply(self, v: Vec2) -> Vec2:
        q = self.m.q
        return ((self.a * v[0] - self.b * v[1]) % q, (self.b * v[0] + self.a * v[1]) % q)

    def compose(self, other: "Rotation") -> "Rotation":
        q = self.m.q
        return Rotation(
            (self.a * other.a - self.b * other.b) % q,
            (self.b * other.a + self.a * other.b) % q,
            self.m,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.a, (-self.b) % self.m.q, self.m)

    # for these matrices the transpose is the inverse
    transpose = inverse

    def key(self) -> Vec2:
        return (self.a, self.b)


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def so2_table(m: Modulus) -> np.ndarray:
    """Read-only (|SO_2|, 2) int64 table of the group's (a, b), lexicographic.

    For each a, the b with b**2 = 1 - a**2 are looked up among the squares
    sorted by value; the sort is stable, so each run lists b in order.
    """
    q = m.q
    sq = np.arange(q, dtype=np.int64) ** 2 % q
    roots = np.argsort(sq, kind="stable")
    ordered, want = sq[roots], (1 - sq) % q
    lo = np.searchsorted(ordered, want, side="left")
    count = np.searchsorted(ordered, want, side="right") - lo
    starts = np.repeat(lo - (np.cumsum(count) - count), count)
    table = np.stack(
        [np.repeat(np.arange(q, dtype=np.int64), count), roots[starts + np.arange(len(starts))]],
        axis=1,
    )
    table.flags.writeable = False
    return table


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def so2_elements(m: Modulus) -> tuple[Rotation, ...]:
    """The whole group, in lexicographic (a, b) order; its size tracks |S_1|."""
    return tuple(Rotation(a, b, m) for a, b in so2_table(m).tolist())


def stabilizer(m: Modulus, xi: Vec2) -> tuple[Rotation, ...]:
    """Rotations fixing xi, in so2_table order."""
    rows = _fixing(m, xi[0] % m.q * m.q + xi[1] % m.q)
    return tuple(Rotation(a, b, m) for a, b in rows.tolist())


def _plane_dtype(q: int) -> np.dtype:
    return np.min_scalar_type(2 * q)


def rotated_planes(m: Modulus) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(i, rx, ry) for each row (a, b) of so2_table(m), in table order, where
    (rx[x, y], ry[x, y]) = (a x - b y, b x + a y) mod q over the whole plane.

    The images are q x q arrays of the smallest unsigned dtype holding 2q
    (uint8 or uint16 for every plane the lemma suite accepts).  A sum
    s < 2q of two residues is reduced as min(s, s - q): for s < q the
    subtraction wraps around to above s.
    """
    q = m.q
    dt = _plane_dtype(q)
    x = np.arange(q, dtype=np.int64)
    for i, (a, b) in enumerate(so2_table(m).tolist()):
        ax, bx, mby = ((c * x % q).astype(dt) for c in (a, b, -b))
        rx, ry = ax[:, None] + mby, bx[:, None] + ax
        yield i, np.minimum(rx, rx - dt.type(q)), np.minimum(ry, ry - dt.type(q))


def stabilizer_table(m: Modulus) -> np.ndarray:
    """counts[x, y] = len(stabilizer(m, (x, y))) over the whole plane at once."""
    x = np.arange(m.q, dtype=_plane_dtype(m.q))
    counts = np.zeros((m.q, m.q), dtype=np.int64)
    for _, rx, ry in rotated_planes(m):
        counts += (rx == x[:, None]) & (ry == x)
    return counts


def congruence_witness(m: Modulus, t1: Triangle, t2: Triangle) -> Optional[Rotation]:
    """First rotation carrying the difference vectors of t2 onto those of t1.

    Triangles are ordered vertex triples; congruence asks for one theta
    with x_i - x_j = theta(y_i - y_j) for all vertex pairs.  Returns None
    when the triangles are not congruent.
    """
    d1 = (vsub(m, t1[0], t1[1]), vsub(m, t1[1], t1[2]), vsub(m, t1[0], t1[2]))
    d2 = (vsub(m, t2[0], t2[1]), vsub(m, t2[1], t2[2]), vsub(m, t2[0], t2[2]))
    for theta in so2_elements(m):
        if all(theta.apply(b) == a for a, b in zip(d1, d2)):
            return theta
    return None


class TriangleClass(NamedTuple):
    """Canonical difference pair (x - y, y - z) labelling a congruence class."""

    u: Vec2
    v: Vec2


# the census no longer calls this, so it keeps no entries; maxsize=0
# still gives it cache_info(), which counts the calls for tracing
@lru_cache(maxsize=0)
def canonical_pair(m: Modulus, u: Vec2, v: Vec2) -> TriangleClass:
    """Lexicographically least image of (u, v) under the diagonal action."""
    best = min((theta.apply(u), theta.apply(v)) for theta in so2_elements(m))
    return TriangleClass(*best)


def _turn(a, b, codes, q: int) -> np.ndarray:
    """Code c0*q + c1 of the image of each vector code under [[a, -b], [b, a]]."""
    c0, c1 = codes // q, codes % q
    return (a * c0 - b * c1) % q * q + (b * c0 + a * c1) % q


def _orbit_min(rot: np.ndarray, codes: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Least image of each vector code under the rotations `rot`, and the row
    of `rot` attaining it."""
    best, arg = np.empty_like(codes), np.empty_like(codes)
    step = max(1, _CHUNK_BYTES // (8 * len(rot)))
    for s in range(0, len(codes), step):
        img = _turn(rot[:, :1], rot[:, 1:], codes[None, s : s + step], q)
        arg[s : s + step] = img.argmin(axis=0)
        best[s : s + step] = img.min(axis=0)
    return best, arg


def _fixing(m: Modulus, code: int) -> np.ndarray:
    """Rows (a, b) of so2_table(m) whose rotation fixes the vector code."""
    g = so2_table(m)
    return g[_turn(g[:, 0], g[:, 1], code, m.q) == code]


def _canonical_pairs(
    m: Modulus, codes: np.ndarray, ru: np.ndarray, rv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """canonical_pair of each pair (codes[ru], codes[rv]) of vector codes, as
    the codes of the least image pair.

    Codes order like the tuples they encode.  The least image of u comes
    from its orbit alone, found once per distinct code; the rotations
    attaining it form theta*Stab(u), and Stab(u) = Stab(theta u) as the
    group is abelian, so v is turned by theta and then minimized over
    that stabilizer only.
    """
    q = m.q
    g = so2_table(m)
    least, theta = _orbit_min(g, codes, q)
    u, t = least[ru], theta[ru]
    v = _turn(g[t, 0], g[t, 1], codes[rv], q)
    order = np.argsort(u, kind="stable")
    heads = np.flatnonzero(np.r_[True, u[order][1:] != u[order][:-1]])
    for lo, hi in zip(heads, np.r_[heads[1:], len(u)]):
        idx = order[lo:hi]
        v[idx] = _orbit_min(_fixing(m, int(u[order[lo]])), v[idx], q)[0]
    return u, v


def _tally(rank: np.ndarray, size: int) -> np.ndarray:
    """out[i, r] = number of entries equal to r in row i, as float64."""
    k = len(rank)
    flat = (np.arange(k)[:, None] * size + rank).ravel()
    return np.bincount(flat, minlength=k * size).reshape(k, size).astype(np.float64)


def _pair_census(rank: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys rank[x, y] * size + rank[y, z] over all (x, y, z), with counts.

    When the size**2 key space fits the chunk budget, the counts are the
    matrix product sum_y #{x : rank[x, y] = r} * #{z : rank[y, z] = s},
    exact in float64 while n**3 < 2**53.  Otherwise each chunk of middle
    vertices is reduced by sorting, and the reduced chunks are merged into
    the running union once they outgrow both the budget and the union
    itself, so merging costs O(log) passes over the output.
    """
    n = len(rank)
    if 8 * size * size <= _CHUNK_BYTES:
        table = np.zeros((size, size))
        step = max(1, _CHUNK_BYTES // (8 * max(n, size)))
        for y0 in range(0, n, step):
            ys = slice(y0, y0 + step)
            table += _tally(rank[:, ys].T, size).T @ _tally(rank[ys, :], size)
        keys = np.flatnonzero(table)
        return keys, table.ravel()[keys].astype(np.int64)
    keys = counts = np.empty(0, dtype=np.int64)
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0
    step = max(1, _CHUNK_BYTES // (8 * n * n))
    for y0 in range(0, n, step):
        ys = slice(y0, y0 + step)
        block = rank[:, ys].T[:, :, None] * size + rank[ys, :][:, None, :]
        pending.append(np.unique(block, return_counts=True))
        held += 16 * len(pending[-1][0])
        if held > max(_CHUNK_BYTES, 16 * len(keys)):
            keys, counts = _merge_counts([(keys, counts), *pending])
            pending, held = [], 0
    return _merge_counts([(keys, counts), *pending])


def _merge_counts(parts) -> tuple[np.ndarray, np.ndarray]:
    """Sum the counts of equal keys across (keys, counts) parts."""
    keys = np.concatenate([k for k, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    if len(keys) == 0:
        return keys, counts
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first], np.add.reduceat(counts, first)


def _class_census(
    m: Modulus, points: Iterable[Vec2]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the canonical pairs (u, v) of triangle_classes, and their counts.

    Differences are ranked among the distinct differences of the set, so
    each realized pair is counted once over a key space of at most
    min(n**2, q**2)**2; only the distinct pairs are then canonicalized,
    each by a minimum over the cached group table.
    """
    q = m.q
    pts = np.array([tuple(v) for v in points], dtype=np.int64)
    if len(pts) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatch("triangle classes are a planar census")
    pts %= q
    diff = (pts[:, None, :] - pts[None, :, :]) % q  # diff[i, j] = x_i - x_j
    codes, rank = np.unique(diff[..., 0] * q + diff[..., 1], return_inverse=True)
    size = len(codes)
    ranked, counts = _pair_census(rank.reshape(len(pts), len(pts)), size)
    u, v = _canonical_pairs(m, codes, ranked // size, ranked % size)
    # rank the canonical codes too, so a pair key stays below size**2 (a code
    # pair packed as u * q**2 + v would need q**4 to fit in int64)
    cu, ru = np.unique(u, return_inverse=True)
    cv, rv = np.unique(v, return_inverse=True)
    keys, counts = _merge_counts([(ru * len(cv) + rv, counts)])
    return cu[keys // len(cv)], cv[keys % len(cv)], counts


def triangle_classes(m: Modulus, points: Iterable[Vec2]) -> dict[TriangleClass, int]:
    """Census of congruence classes of ordered vertex triples.

    Keys are canonical difference pairs (x - y, y - z); the third
    difference x - z is their sum, so it never needs to be stored.
    Duplicate points count as separate vertices, and the multiplicities
    sum to n**3 over the n**3 ordered triples.
    """
    q = m.q
    u, v, counts = _class_census(m, points)
    return {
        TriangleClass((a, b), (c, d)): n
        for a, b, c, d, n in zip(
            (u // q).tolist(), (u % q).tolist(), (v // q).tolist(), (v % q).tolist(),
            counts.tolist(),
        )
    }


def triangle_class_count(m: Modulus, points: Iterable[Vec2]) -> int:
    """len(triangle_classes(m, points)), without building the classes."""
    return len(_class_census(m, points)[2])
