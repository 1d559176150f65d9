"""The rotation group SO_2(Z_q), stabilizers, and triangle congruence; the t2
count (triangle_class_count) takes a covering certificate, orbit cover or a
count of closed-form orbit keys."""

from __future__ import annotations

import gc
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import _census
from .fourier import _correlation
from .geometry import _read_points, valuation_table, vsub
from .ring import Modulus, Polynomial, hensel_lift_root

__all__ = [
    "Rotation",
    "TriangleClass",
    "canonical_pair",
    "congruence_witness",
    "orbit_pair_total",
    "pair_orbit_keys",
    "realizes_every_pair",
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
# bytes so2_table holds while it builds, per residue of Z_q: by tracemalloc, 88 B
# for l = 1 and 101 B at Z_3**12, where |SO_2| = 4q/3 is largest
_SO2_BYTES = 104
# bytes the t2 key count may hold per distinct int64 orbit key, twice that per
# _WIDE_KEY: a merge holds the union, as many pending keys and their
# concatenation, at most 32 B a key, plus a few blocks.  Random sparse sets,
# whose keys are nearly all distinct, peak at about 17 B a triple with int64
# keys (150 to 322 points in Z_727) and 34 B with wide keys (150 and 250 points
# at q = 2**31 - 1), by tracemalloc
_ORBIT_KEY_BYTES = 32
# the same for triangle_classes, whose census tallies each key's count and one
# pair of codes, then canonicalizes those pairs: it peaks at 74 to 89 B a class
# on 60 to 150 random points in Z_625, Z_727 and Z_729, by tracemalloc
_CLASS_KEY_BYTES = 96


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
        """theta v, for a residue vector v taken as given (see geometry.vadd)."""
        q = self.m.q
        return ((self.a * v[0] - self.b * v[1]) % q, (self.b * v[0] + self.a * v[1]) % q)

    def compose(self, other: "Rotation") -> "Rotation":
        """self * other, of residues taken as given."""
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
    A ValueError refuses a build past _CENSUS_BYTES, before it starts.
    """
    q = m.q
    if _SO2_BYTES * q > _census._CENSUS_BYTES:
        raise ValueError(f"the SO_2 table of Z_{q} would hold {_SO2_BYTES * q} bytes, "
                         f"over the {_census._CENSUS_BYTES}-byte budget")
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
    rows = _fixing(m, int(_read_points(m, 2, [xi])[0] @ [m.q, 1]))
    return tuple(Rotation(a, b, m) for a, b in rows.tolist())


def stabilizer_table(m: Modulus) -> np.ndarray:
    """counts[x, y] = len(stabilizer(m, (x, y))) over the whole plane at once.

    Any row (a, b) fixes v exactly when ((a - 1) + b i)(x + y i) = 0 in
    Z_q[i], a test on the _depths of the two factors (the Z_q[i] argument
    of _pair_orbits_by_depth).  So the table is a cumulative histogram of
    the rows' reach, l minus their depths, looked up at each plane depth.
    """
    g, l = so2_table(m), m.l
    reach = l - _depths(m, g[:, 0] - 1, g[:, 1])
    fixing = np.zeros((l + 1,) * len(reach), dtype=np.int64)
    np.add.at(fixing, tuple(reach), 1)
    for axis in range(len(reach)):
        fixing = fixing.cumsum(axis)
    x = np.arange(m.q, dtype=np.int64)
    return fixing[tuple(_depths(m, x[:, None], x[None, :]))]


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _iota(m: Modulus) -> int:
    """A root of x**2 + 1 mod q for p = 1 mod 4, lifted from c**((p-1)/4), c a non-residue."""
    p = m.p
    root = next(t for t in (pow(c, (p - 1) // 4, p) for c in range(2, p)) if t * t % p == p - 1)
    return hensel_lift_root(Polynomial((1, 0, 1)), root, m)


def _depths(m: Modulus, re, im) -> np.ndarray:
    """Depths of the Gaussian integers re + im i in Z_q[i], on a new leading
    axis; a product of two vanishes iff their depths sum to at least l in
    every component.  For p = 3 mod 4 the ring is local, with the one
    depth min(v(re), v(im)); for p = 1 mod 4 it splits as Z_q x Z_q by
    re + im i -> (re + iota im, re - iota im), one depth per factor.
    """
    q, v = m.q, valuation_table(m)
    if m.p % 4 == 3:
        return np.stack([np.minimum(v[re % q], v[im % q])])
    return np.stack([v[(re + _iota(m) * im) % q], v[(re - _iota(m) * im) % q]])


def orbit_pair_total(m: Modulus) -> int:
    """T(q), the number of orbits of SO_2 acting diagonally on pairs (u, v).

    By Burnside, T(q) = (1/|SO_2|) sum_theta |Fix theta|**2, where Fix theta
    is the kernel of M = theta - I = [[a - 1, -b], [b, a - 1]] on Z_q^2, and
    |Fix theta| = p**(2k) with k = min(v(a - 1), v(b)), v(0) = l:

    - a != 1 mod p: det M = (a - 1)**2 + b**2 = 2(1 - a) is a unit, so M is
      invertible, Fix theta = {0} and k = 0.
    - a = 1 mod p, a != 1: put s = v(a - 1), 0 < s < l.  Row and column
      operations over Z_q bring M to its Smith form diag(p**k, p**(s - k)),
      where k is the least valuation of an entry and s that of det M, so
      |Fix theta| = p**s.  From a**2 + b**2 = 1, b**2 = -(a - 1)(a + 1) and
      a + 1 = 2 mod p is a unit, so v(b**2) = s < l forces 2 v(b) = s; then
      k = v(b) = s / 2 and |Fix theta| = p**(2k).
    - a = 1: M = [[0, -b], [b, 0]], whose kernel is b x = b y = 0, with
      p**v(b) = p**k solutions per coordinate.

    So T costs one pass over so2_table instead of a scan of the plane.
    """
    per_k = _fix_depths(m)
    return sum(count * m.p ** (4 * k) for k, count in enumerate(per_k)) // sum(per_k)


def _fix_depths(m: Modulus) -> list[int]:
    """per_k[k], the number of rotations (a, b) with min(v(a - 1), v(b)) = k,
    for k = 0 .. l; such a rotation fixes p**(2k) plane points (see
    orbit_pair_total)."""
    g, v = so2_table(m), valuation_table(m)
    k = np.minimum(v[(g[:, 0] - 1) % m.q], v[g[:, 1]])
    return np.bincount(k, minlength=m.l + 1).tolist()


def _pair_orbits_by_depth(m: Modulus) -> list[int]:
    """N[j], the number of SO_2-orbits of pairs (u, v) whose first entry
    lies in the orbit of a difference u of depth j = min(v(u_0), v(u_1)),
    for j = 0 .. l (j = l for u = 0).

    Such orbits correspond to the orbits of Stab(u) on the v, so by
    Burnside N = (1/|Stab u|) sum_{sigma in Stab u} |Fix sigma|.  Stab(u)
    depends on j alone: it is the set of rotations with
    min(v(a - 1), v(b)) >= l - j.  Write u = p**j w with w primitive and
    r = l - j; theta fixes u exactly when (theta - I) w = 0 mod p**r.
    Read vectors as Gaussian integers x + yi, so that theta is
    multiplication by a + bi, of norm a**2 + b**2 = 1, and the condition
    is (theta - 1) w = 0 in Z_{p**r}[i]:

    - if w_0**2 + w_1**2 is a unit, w is invertible (its inverse is its
      conjugate over its norm), so theta = 1 mod p**r.  This covers every
      primitive w when p = 3 mod 4, as x**2 + y**2 = 0 mod p then forces
      x = y = 0 mod p.
    - otherwise p = 1 mod 4, and with iota**2 = -1 mod p**r (Hensel),
      x + yi -> (x + iota y, x - iota y) is a ring isomorphism onto
      Z_{p**r} x Z_{p**r} (2 and iota are units).  w maps to (alpha, beta)
      with alpha or beta a unit, since alpha + beta = 2 w_0 and
      alpha - beta = 2 iota w_1; theta maps to (s, 1/s).  Then
      (s - 1) alpha = (1/s - 1) beta = 0 forces s = 1, so again
      theta = 1 mod p**r.

    Conversely theta = 1 mod p**r fixes u.  Both N and |Stab| are sums
    over the per_k of _fix_depths, so the table costs one pass over the
    group.
    """
    per_k, p, l = _fix_depths(m), m.p, m.l
    return [
        sum(per_k[k] * p ** (2 * k) for k in range(l - j, l + 1)) // sum(per_k[l - j :])
        for j in range(l + 1)
    ]


def realizes_every_pair(m: Modulus, n: int) -> bool:
    """Whether any n distinct plane points realize every difference pair (u, v).

    A pair is realized when some y in E has y + u and y - v in E, so y must
    lie in E ∩ (E - u) ∩ (E + v).  |E ∩ (E - u)| >= 2n - q**2, and two
    subsets of Z_q^2 whose sizes sum past q**2 meet, so 3n > 2q**2 settles
    every pair at once; then the triangle classes number orbit_pair_total(m).
    """
    return 3 * n > 2 * m.q**2


def congruence_witness(m: Modulus, t1: Triangle, t2: Triangle) -> Optional[Rotation]:
    """First rotation carrying the difference vectors of t2 onto those of t1.

    Triangles are ordered vertex triples, each read as one 3-row array;
    congruence asks for one theta with x_i - x_j = theta(y_i - y_j) for all
    vertex pairs.  Returns None when the triangles are not congruent.
    """
    d1, d2 = ([vsub(m, x, y), vsub(m, y, z), vsub(m, x, z)]  # unpacking: 3 rows or ValueError
              for x, y, z in (map(tuple, _read_points(m, 2, t).tolist()) for t in (t1, t2)))
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
    u, v = (tuple(_read_points(m, 2, [w])[0].tolist()) for w in (u, v))
    best = min((theta.apply(u), theta.apply(v)) for theta in so2_elements(m))
    return TriangleClass(*best)


# a pair key past int64: hi = tag q + a < (6 l + 1) q <= 115 * 2**31 < 2**38, lo = b q + c <
# q**2 <= 2**62, as (hi 2**12 + lo // 2**50) + (lo mod 2**50) i; both parts are integers below
# 2**53, exact, and numpy orders complex numbers by real, then imaginary part, like (hi, lo)
_WIDE_KEY = np.dtype(np.complex128)


def _wide_keys(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The _WIDE_KEY of each int64 pair (hi, lo), 0 <= hi < 2**38 and 0 <= lo < 2**62."""
    return (hi << 12 | lo >> 50) + (lo & (1 << 50) - 1) * 1j


def pair_orbit_keys(m: Modulus, u, v) -> np.ndarray:
    """One key per pair (u, v) of plane vectors, given as integer arrays of shape
    (..., 2) that broadcast together, or as _plane_vectors reads them; two pairs
    get equal keys exactly when they lie in one SO_2 orbit.

    Read u and v as Gaussian integers z and w of Z_r[i], r = q at first.  A
    rotation theta = a + bi has norm N(theta) = a**2 + b**2 = 1 and acts by
    multiplication.  The key is a tag and three entries of Z_r:

    1. N(z) = u.u is a unit mod p: (N(z), u.v, det(u, v)), which is N(z) and
       conj(z) w = u.v + det(u, v) i.  Both are invariant, and if two pairs
       share them, theta = z'/z has norm N(z')/N(z) = 1, carries z to z',
       and carries w to conj(z) w / conj(z') = w / conj(theta) = theta w.
    2. otherwise, N(w) is a unit: the same with u and v swapped, that is
       (N(w), u.v, det(u, v)), as det(v, u) = -det(u, v).
    3. otherwise p = 1 mod 4, since for p = 3 mod 4, N(z) = 0 mod p forces
       z = 0 mod p.  With iota**2 = -1 mod r (_iota, by Hensel), x + yi ->
       (x + iota y, x - iota y) = (alpha, beta) is a ring isomorphism
       Z_r[i] -> Z_r x Z_r, as 2 and iota are units, and theta maps to
       (s, 1/s), s running over all of Z_r^*.  The first unit t among
       alpha(z), beta(z), alpha(w), beta(w) is turned to 1 (s = 1/t on an
       alpha, s = t on a beta), and the key is its position and the other
       three entries after that turn; equal keys give equal turned tuples,
       so the pairs share an orbit.
    4. otherwise none of the four is a unit, and as alpha + beta = 2x and
       alpha - beta = 2 iota y, u = v = 0 mod p: the pair is p times a pair
       (u', v') read mod r/p.  (pu, pv) = theta (pu', pv') mod p**i exactly
       when (u, v) = theta (u', v') mod p**(i - 1), and SO_2(Z_{p**i}) maps
       onto SO_2(Z_{p**(i - 1)}): p is odd, so a**2 + b**2 = 1 lifts by
       Hensel in whichever of a, b is a unit.  So the orbits of such pairs
       are those of the quotients, and the key is theirs, one level down.
       Every other pair has a unit coordinate by level l - 1, where r = p;
       (0, 0) alone has none, and its orbit is itself.

    Every condition above is an orbit invariant, so the tag 6 j + branch at
    level j, r = q / p**j (branch 0, 1, or 2 + the position of t), keeps the
    branches apart, and (0, 0) takes the tag 6 l, with a = b = c = 0.  No
    group table is built.  Keys are int64, ((tag q + a) q + b) q + c, while
    the key space (6 l + 1) q**3 fits int64 (q up to about 10**6 at l = 1);
    past it each key is the _WIDE_KEY of (tag q + a, b q + c), which sorts
    and compares in the same order.
    """
    q, p, l = m.q, m.p, m.l
    u, v = _plane_vectors(m, u), _plane_vectors(m, v)
    coords = (u[..., 0], u[..., 1], v[..., 0], v[..., 1])
    head, b, c = _level_keys(m, q, *coords)
    deep = np.flatnonzero(head < 0)
    for j in range(1, l):
        if not len(deep):
            break
        sub = _level_keys(m, q // p**j, *(np.broadcast_to(x, head.shape).flat[deep] // p**j
                                           for x in coords))
        for full, part in zip((head, b, c), sub):
            full.flat[deep] = part
        head.flat[deep] += 6 * j * q
        deep = deep[sub[0] < 0]
    if _key_dtype(m) == np.int64:
        return (head * q + b) * q + c
    return _wide_keys(head, b * q + c)


def _plane_vectors(m: Modulus, w) -> np.ndarray:
    """pair_orbit_keys' u or v by _read_points: an integer (..., 2) array, a vector or a list."""
    if isinstance(w, np.ndarray):
        return _read_points(m, 2, w.reshape(-1, 2) if w.shape[-1:] == (2,) else w).reshape(w.shape)
    pts = list(w)
    one = pts and not any(isinstance(c, (tuple, list, np.ndarray)) for c in pts)
    return _read_points(m, 2, [pts])[0] if one else _read_points(m, 2, pts)


def _key_dtype(m: Modulus) -> np.dtype:
    """int64 while pair_orbit_keys' key space (6 l + 1) q**3 fits it, else _WIDE_KEY."""
    return np.dtype(np.int64) if (6 * m.l + 1) * m.q**3 <= 2**63 else _WIDE_KEY


def _level_keys(m: Modulus, r: int, x0, x1, y0, y1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tag q + a, b, c) of pair_orbit_keys' branches 1 to 3 for the pairs
    ((x0, x1), (y0, y1)) read mod r, arrays that broadcast together; the
    whole key of (0, 0), and head -1 where branch 4 applies."""
    q, p = m.q, m.p
    # every product stays below r**2 <= 2**62, and a sum of two below 2**63
    nu, nv = (x0 * x0 + x1 * x1) % r, (y0 * y0 + y1 * y1) % r
    head = np.where(nu % p != 0, nu, np.where(nv % p != 0, q + nv, -1))
    b, c = (x0 * y0 + x1 * y1) % r, (x0 * y1 - x1 * y0) % r
    rest = np.flatnonzero(head < 0)
    if not len(rest):
        return head, b, c
    s0, s1, z0, z1 = (np.broadcast_to(x, head.shape).flat[rest] for x in (x0, x1, y0, y1))
    zero = (s0 | s1 | z0 | z1) == 0
    head.flat[rest[zero]] = 6 * m.l * q  # b = c = 0 there already
    if p % 4 == 3 or zero.all():
        return head, b, c
    split, s0, s1, z0, z1 = rest[~zero], s0[~zero], s1[~zero], z0[~zero], z1[~zero]
    iota = _iota(m) % r
    parts = np.stack([s0 + iota * s1, s0 - iota * s1, z0 + iota * z1, z0 - iota * z1]) % r
    unit = parts % p != 0
    at = unit.argmax(axis=0)
    lead = parts[at, np.arange(len(split))]
    inv = np.ones_like(lead)  # lead**(phi(r) - 1) = 1 / lead mod r
    for bit in bin((r // p) * (p - 1) - 1)[2:]:
        inv = inv * inv % r
        inv = inv * lead % r if bit == "1" else inv
    on_alpha = at % 2 == 0
    scale = np.stack([np.where(on_alpha, inv, lead), np.where(on_alpha, lead, inv)] * 2)
    others = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])[at].T
    a3, b3, c3 = np.take_along_axis(parts * scale % r, others, axis=0)
    head.flat[split] = np.where(unit.any(axis=0), (2 + at) * q + a3, -1)
    b.flat[split], c.flat[split] = b3, c3
    return head, b, c


def _turn(a, b, codes, q: int) -> np.ndarray:
    """Code c0*q + c1 of the image of each vector code under [[a, -b], [b, a]]."""
    c0, c1 = codes // q, codes % q
    return (a * c0 - b * c1) % q * q + (b * c0 + a * c1) % q


def _orbit_min(rot: np.ndarray, codes: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Least image of each vector code under the rotations `rot`, and the first
    row of `rot` attaining it."""
    best, arg = np.empty_like(codes), np.empty_like(codes)
    # _turn's terms stay below 2q**2, so under q = 32768 int32 halves the bytes
    small = _census._int_dtype(2 * q * q)
    rot, codes = rot.astype(small), codes.astype(small)
    for rs in _census._blocks(len(codes), len(rot), _census._BLOCK_BYTES):
        img = _turn(rot[:, :1], rot[:, 1:], codes[None, rs], q)
        # the first row at the minimum is the argmin, which is slow along axis 0 of a wide block
        best[rs] = low = img.min(axis=0)
        arg[rs] = (img == low).argmax(axis=0)
        del img  # freed before the next block's turn
    return best, arg


def _fixing(m: Modulus, code: int) -> np.ndarray:
    """Rows of so2_table(m) fixing the vector code, by the depth test of stabilizer_table."""
    g = so2_table(m)
    fixed = _depths(m, g[:, 0] - 1, g[:, 1]) + _depths(m, code // m.q, code % m.q)[:, None]
    return g[(fixed >= m.l).all(axis=0)]


def _canonical_pairs(
    m: Modulus, codes: np.ndarray, ru: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """canonical_pair of each pair (codes[ru], v) of vector codes, as the
    codes of the least image pair; v is turned in place.

    Codes order like the tuples they encode.  The least image of u comes
    from its orbit alone, found once per entry of codes; the rotations
    attaining it form theta*Stab(u), and Stab(u) = Stab(theta u) as the
    group is abelian, so v is turned by theta and then minimized over
    that stabilizer only, which depends on the depths of u alone; pairs
    are turned one block of a depth group at a time.
    """
    q = m.q
    g = so2_table(m)
    least, theta = _orbit_min(g, codes, q)
    depth = _depths(m, least // q, least % q)[:, ru]
    order = np.lexsort(depth)
    heads = np.flatnonzero(_census._heads(depth[:, order].T))
    for lo, hi in zip(heads, np.r_[heads[1:], len(ru)]):
        stab = _fixing(m, int(least[ru[order[lo]]]))
        for rs in _census._blocks(hi - lo, 16, _census._BLOCK_BYTES):  # 16 int64 temporaries a pair
            idx = order[lo:hi][rs]
            t = theta[ru[idx]]
            v[idx] = _orbit_min(stab, _turn(g[t, 0], g[t, 1], v[idx], q), q)[0]
    return least[ru], v


def _row_counts(rank: np.ndarray, size: int) -> np.ndarray:
    """out[i, r] = number of entries equal to r in row i, as float64."""
    k = len(rank)
    flat = (np.arange(k)[:, None] * size + rank).ravel()
    return np.bincount(flat, minlength=k * size).reshape(k, size).astype(np.float64)


def _class_census(m: Modulus, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the canonical pairs (u, v) of triangle_classes, in order, and
    their counts: the orbit keys of _key_blocks tallied by weight, each with
    one of its pairs, which alone is canonicalized."""
    q = m.q
    if not len(pts):
        return (np.empty(0, dtype=np.int64),) * 3

    def code(w):
        return w[..., 0] % q * q + w[..., 1] % q

    blocks = _key_blocks(m, pts, _CLASS_KEY_BYTES)
    counts, u, v = _census._tally((k, w, code(u), code(v)) for k, w, u, v in blocks)[1:]
    codes = _census._merged([u])
    ru = np.searchsorted(codes, u)
    del u  # freed before the pairs are canonicalized
    u, v = _canonical_pairs(m, codes, ru, v)
    order = np.lexsort((v, u))
    return u[order], v[order], counts[order]


def _key_blocks(m: Modulus, pts: np.ndarray, key_bytes: int) -> Iterator[tuple]:
    """Blocks (keys, weights, u, v) over the ordered triples (x, y, z) of pts:
    pair_orbit_keys of the pairs (u, v) = (x - y, y - z), each weighted by
    its number of triples, with u and v as vectors broadcasting to the keys.

    The keys number at most n**3, the key space and s**2, s the number of
    distinct differences, which takes n**2 steps to count and is counted
    once the triples pass one block or 4 q**4.  The least bound times
    key_bytes (twice that per _WIDE_KEY) is checked against _CENSUS_BYTES
    before any key is formed.  With s**2 within the dense table, that table
    gives the realized pairs and their counts, sum_y #{x : y - x = a} *
    #{z : y - z = b} over the differences a, b (n s**2 flops, exact in
    float64 while n**3 < 2**53), in one block; keying its at most q**4
    pairs beats keying the triples for both censuses from n**3 = 4.4 q**4
    (q = 9 to 19), and loses for the count at 1.5 to 1.9 q**4.  Otherwise
    every triple is keyed with weight 1, one block of middle vertices y at
    a time, each block's keys at most _BLOCK_BYTES.
    """
    q, n, block_bytes, census_bytes = m.q, len(pts), _census._BLOCK_BYTES, _census._CENSUS_BYTES
    per_key = key_bytes * _key_dtype(m).itemsize // 8
    held = per_key * min(n**3, (6 * m.l + 1) * q**3)
    codes = None
    if held > census_bytes or 8 * n**3 > block_bytes or n**3 > 4 * q**4:
        diffs = partial(_difference_blocks, pts, q)
        if 8 * n * n <= block_bytes:  # one block: make it once for both passes
            diffs = partial(iter, list(diffs()))
        codes = _census._residues(diffs(), q * q)
        held = min(held, per_key * len(codes) ** 2)
    if held > census_bytes:
        raise ValueError(f"t2 census over n = {n} points may hold {held} bytes of orbit keys, "
                         f"over the {census_bytes}-byte budget")
    if codes is not None and 8 * len(codes) ** 2 <= block_bytes:
        size = len(codes)
        rank = partial(np.searchsorted, codes)
        if q * q <= n * n:  # tabulated, when the table is no larger than the differences
            rank = rank(np.arange(q * q)).__getitem__
        table = np.zeros((size, size))
        for block in diffs():
            ranks = rank(block)  # row y holds the ranks of y - x over every x
            for rs in _census._blocks(len(ranks), max(n, size), block_bytes):
                counts = _row_counts(ranks[rs], size)
                table += counts.T @ counts
        pairs = np.flatnonzero(table)  # rank(y - x) * size + rank(y - z)
        u, v = (np.stack([c // q, c % q], axis=-1)
                for c in (_turn(-1, 0, codes, q)[pairs // size], codes[pairs % size]))
        yield pair_orbit_keys(m, u, v), table.ravel()[pairs].astype(np.int64), u, v
        return
    for rs in _census._blocks(n, n * n, block_bytes, _key_dtype(m).itemsize):
        d = pts[None, :] - pts[rs, None]  # d[y, x] = x - y
        u, v = d[:, :, None], -d[:, None, :]
        yield pair_orbit_keys(m, u, v), 1, u, v


def triangle_classes(m: Modulus, points: Iterable[Vec2]) -> dict[TriangleClass, int]:
    """Census of congruence classes of ordered vertex triples.

    Keys are canonical difference pairs (x - y, y - z); the third
    difference x - z is their sum, so it never needs to be stored.
    Duplicate points count as separate vertices, and the multiplicities
    sum to n**3 over the n**3 ordered triples.  The classes are those of
    triangle_class_count's key count, refused past the same byte rule at
    _CLASS_KEY_BYTES a key.
    """
    q = m.q
    u, v, counts = _class_census(m, _read_points(m, 2, points))
    pairs = zip(zip((u // q).tolist(), (u % q).tolist()), zip((v // q).tolist(), (v % q).tolist()))
    # the collector's full passes over the growing dict took 1.6 s of 2.8 s at 970291 classes
    enabled = gc.isenabled()
    gc.disable()
    try:
        return dict(zip(map(TriangleClass._make, pairs), counts.tolist()))
    finally:
        if enabled:
            gc.enable()


def triangle_class_count(m: Modulus, points: Iterable[Vec2] | np.ndarray) -> int:
    """len(triangle_classes(m, points)), without building the classes.

    Points may also come as an (n, 2) integer array; only the n distinct
    points matter.  Three regimes, by n:

    - 3n > 2q**2 (realizes_every_pair): the count is orbit_pair_total(m).
    - n**3 >= q**4 ln(q**2), where a random set's n**2 / q**2 shifts per
      first difference reach the q**2 ln(q**2) / n a cover needs: the orbit
      cover, which settles every orbit with a member w of
      |E ∩ (E - w)| + n > q**2 before it cuts any window, within
      min(_OP_CAP, n**3) operations; past them the key count
      runs if n**3 <= _OP_CAP, and a ValueError refuses the count if not.
    - otherwise the key count: the distinct pair_orbit_keys of the n**3
      triples, refused past _OP_CAP, or before any key is formed when
      _ORBIT_KEY_BYTES per int64 key it may hold (twice that per _WIDE_KEY)
      passes _CENSUS_BYTES (_key_blocks).
    """
    q = m.q
    codes = _census._merged([_read_points(m, 2, points) @ [q, 1]])
    n = len(codes)
    if realizes_every_pair(m, n):
        return orbit_pair_total(m)
    if n**3 >= q**4 * math.log(q * q):
        try:
            return _cover_count(m, codes, min(_census._OP_CAP, n**3))
        except _census._OverBudget:
            if n**3 > _census._OP_CAP:
                raise
    _census._Meter(f"t2 census over n = {n} points").charge(n**3)
    return _key_count(m, np.stack([codes // q, codes % q], axis=1))


def _key_count(m: Modulus, pts: np.ndarray) -> int:
    """The number of distinct keys of _key_blocks over the ordered triples of
    the n distinct points pts, at _ORBIT_KEY_BYTES a key."""
    return len(_census._union(keys for keys, *_ in _key_blocks(m, pts, _ORBIT_KEY_BYTES)))


def _difference_blocks(pts: np.ndarray, q: int) -> Iterator[np.ndarray]:
    """Codes of pts[i] - pts[j], one block of rows i at a time, each block
    at most _BLOCK_BYTES."""
    x, y = pts[:, 0], pts[:, 1]
    for rs in _census._blocks(len(pts), len(pts), _census._BLOCK_BYTES):
        block = (x[rs, None] - x) % q * q
        block += (y[rs, None] - y) % q
        yield block


def _cover_count(m: Modulus, codes: np.ndarray, budget: int) -> int:
    """triangle_class_count of the points with these distinct codes, one
    orbit of first differences at a time, within `budget` operations.

    With C the complement of E, no y in A_w = E ∩ (E - w) realizes (w, v)
    for v in ∩_{y in A_w} (y - C).  A scan of the plane gives the least
    member u of each orbit, and |A_w| at every w is E's indicator
    correlated with itself (fourier._correlation).  An orbit adds
    _pair_orbits_by_depth at its depth at once when a member has
    |A_w| + n > q**2, as A_w then meets every E + v, and nothing when no
    member is a difference; only if an orbit is left are cut tables built.
    There U starts as the plane, each member w = theta u with A_w nonempty,
    in code order (u first, by the identity, if u != 0), cuts it by
    theta^-1 (y - C) over y in A_w, and the orbit adds N[depth] less the
    |keys(u, U) - keys(u, plane - U)| pair orbits wholly in U.  Sets are
    ints, cell (i, j) at bit 2q i + j: a window at (r, c) of a 2q x 2q
    tiling of theta^-1 (-C) is the tiling shifted right by 2q r + c.
    Charged before each runs: the scan |SO_2| q**2, the transform
    2 q**2 q.bit_length(), a window or hit mask the CPython digits of 4 q**2
    bits, a rotated tiling q**2, and the key fallback (pair_orbit_keys) q**2.
    """
    q, n, q2 = m.q, len(codes), m.q**2
    meter = _census._Meter(f"t2 orbit cover over n = {n} points", budget)
    g, plane = so2_table(m), np.arange(q2)
    # charged on every call, cached or not, so no refusal depends on earlier calls
    meter.charge(len(g) * q2)
    meter.charge(2 * q2 * q.bit_length())  # two real 2-D FFTs
    least, reps, gains = _cover_tables(m)
    ind = (np.bincount(codes, minlength=q2) > 0).reshape(q, q)
    sizes = _correlation(ind, ind).ravel()
    largest = np.zeros(q2, dtype=np.int64)  # at u, the largest |A_w| over u's orbit
    np.maximum.at(largest, least, sizes)
    seen = largest[reps] > 0
    total, left = int(gains[seen].sum()), reps[seen & (largest[reps] + n <= q2)]
    if not len(left):
        return total

    def bits(cells: np.ndarray) -> int:  # bit k is the k-th cell, row-major
        return int.from_bytes(np.packbits(cells, axis=None, bitorder="little").tobytes(), "little")

    wrap, flip = np.arange(2 * q) % q, -np.arange(2 * q) % q
    hole, inner = ~ind[flip][:, flip], wrap == np.arange(2 * q)  # hole[w]: -w is in C
    box, tiled, holes = bits(inner[:, None] & inner), bits(ind[wrap][:, wrap]), bits(hole)
    digits = -(-4 * q2 // sys.int_info.bits_per_digit)

    def cut(U: int, a: int, b: int, w: int) -> int:
        """U cut by theta^-1 (y - C) over y in A_w, theta = (a, b)."""
        meter.charge(digits)
        hit = box & tiled & tiled >> (w // q * 2 * q + w % q)
        tiles = holes
        if (a, b) != (1, 0):
            meter.charge(q2)
            tiles = bits(hole[:q, :q].ravel()[_turn(a, b, plane, q)].reshape(q, q)[wrap][:, wrap])
        while hit and U:
            meter.charge(digits)
            i, j = divmod((hit & -hit).bit_length() - 1, 2 * q)  # y; its window is at -theta^-1 y
            hit &= hit - 1
            U &= tiles >> (-(a * i + b * j) % q * 2 * q + (b * i - a * j) % q)
        return U

    for u in left.tolist():
        U, (members, rows) = box, np.unique(_turn(g[:, 0], g[:, 1], u, q), return_index=True)
        for (a, b), w in zip(g[rows].tolist(), members.tolist()):
            U = cut(U, a, b, w) if U and sizes[w] else U
        if U:
            meter.charge(q2)
            raw = np.frombuffer(U.to_bytes(q2 // 4 + 1, "little"), dtype=np.uint8)
            inside = np.unpackbits(raw, bitorder="little")[plane + plane // q * q] > 0
            keys = pair_orbit_keys(m, divmod(u, q), np.stack(np.divmod(plane, q), axis=-1))
            total -= len(np.setdiff1d(keys[inside], keys[~inside]))
    return total


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _cover_tables(m: Modulus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_cover_count's read-only tables at m: each plane code's least orbit
    member, the distinct least members u, and _pair_orbits_by_depth at the
    depth of each u."""
    q, v = m.q, valuation_table(m)
    # a scan, not labels pair_orbit_keys(m, u, 0): cold at Z_13 those take 0.5-1.4 ms to its
    # 0.1 ms, and threshold-stats wall_s rose 8.13/8.23/7.56 -> 9.14/8.67/8.50 ms in 3 pairs
    least = _orbit_min(so2_table(m), np.arange(q * q), q)[0]
    reps = _census._merged([least])
    gains = np.array(_pair_orbits_by_depth(m))[np.minimum(v[reps // q], v[reps % q])]
    for table in (least, reps, gains):
        table.flags.writeable = False
    return least, reps, gains
