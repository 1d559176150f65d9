"""Point sets in Z_q^d and the exact configuration counters over them.

Every counter is an exhaustive enumeration, vectorized with numpy when
the triple or pair count warrants it, in blocks sized in bytes; the set
counters stop early once every residue has been seen.  Dot products of a
product set A^d are the exception: they are counted exactly as a sumset
of A.A, without listing A^d.  Transforms are only ever used to
cross-check identities, never to produce a count.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from fractions import Fraction

import numpy as np

from .fourier import GridFunction
from .geometry import (
    DimensionMismatch,
    Line,
    Vec,
    norm,
    vadd,
    valuation_table,
    vsub,
)
from .orthogroup import Rotation, _merge_counts, _residues
from .ring import Modulus

__all__ = [
    "FULL_GRID_CAP",
    "PointSet",
    "SUMSET_BUDGET",
    "difference_stratum_census",
    "difference_stratum_counts",
    "distance_set",
    "dot_product_count",
    "dot_product_counts",
    "dot_product_set",
    "moment_bound",
    "restricted_line_count",
    "rotation_correlation",
    "sumset",
    "sumset_cost",
    "triangle_area_count",
    "triangle_area_set",
]

# ceiling on materialized grids and sampling universes
FULL_GRID_CAP = 10**6
# operations the sumset path of a product set may spend (sumset_cost)
SUMSET_BUDGET = 2 * 10**8
# uint8 pair strata held at once by the difference census
_CENSUS_CHUNK_BYTES = 1 << 20
# bytes of one int64 block of areas or dot products; a scan keeps at most
# four blocks' worth alive
_CHUNK_BYTES = 1 << 22


class PointSet:
    """A deduplicated, lexicographically sorted subset of Z_q^d.

    `base` records the one-dimensional factor when the set was built as
    a d-fold product A x ... x A; counters that only make sense for
    product sets require it.  Sets from `product` and `full_grid` keep
    only their factor and d: size and membership come from the factor,
    and the points are listed on first use, which is refused past
    FULL_GRID_CAP.  Instances are immutable.
    """

    __slots__ = ("m", "d", "base", "_factor", "_points", "_index")

    def __init__(
        self, m: Modulus, d: int, points: Iterable[Vec], base: Iterable[int] | None = None
    ) -> None:
        _check_dimension(d)
        q = m.q
        pts = sorted({tuple(c % q for c in pt) for pt in points})
        for pt in pts:
            if len(pt) != d:
                raise DimensionMismatch(f"point {pt} is not {d}-dimensional")
        if base is not None:
            base = tuple(sorted({c % q for c in base}))
        self._fill(m, d, base, None, tuple(pts))

    def _fill(self, m, d, base, factor, points) -> None:
        for name, value in zip(self.__slots__, (m, d, base, factor, points, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointSet is immutable; cannot set {name}")

    @classmethod
    def _lazy(cls, m: Modulus, d: int, factor: tuple[int, ...], base) -> "PointSet":
        ps = cls.__new__(cls)
        ps._fill(m, d, base, factor, None)
        return ps

    @classmethod
    def _from_sorted(cls, m: Modulus, d: int, rows: np.ndarray) -> "PointSet":
        """The set of an (n, d) array of distinct residue rows in [0, q), in
        lexicographic order; taken as given, with no reduction or sort."""
        ps = cls.__new__(cls)
        ps._fill(m, d, None, None, tuple(map(tuple, rows.tolist())))
        return ps

    @classmethod
    def product(cls, m: Modulus, base: Iterable[int], d: int) -> "PointSet":
        """The d-fold product A x ... x A of a subset A of Z_q."""
        _check_dimension(d)
        a = tuple(sorted({c % m.q for c in base}))
        return cls._lazy(m, d, a, base=a)

    @classmethod
    def full_grid(cls, m: Modulus, d: int) -> "PointSet":
        _check_dimension(d)
        if m.q**d > FULL_GRID_CAP:
            raise ValueError(f"grid Z_{m.q}^{d} exceeds the {FULL_GRID_CAP}-point cap")
        return cls._lazy(m, d, tuple(range(m.q)), base=None)

    def _listable(self) -> None:
        if self.size > FULL_GRID_CAP:
            raise ValueError(
                f"product A^{self.d} with |A| = {len(self._factor)} exceeds the "
                f"{FULL_GRID_CAP}-point cap"
            )

    @property
    def points(self) -> tuple[Vec, ...]:
        if self._points is None:
            self._listable()
            object.__setattr__(
                self, "_points", tuple(itertools.product(self._factor, repeat=self.d))
            )
        return self._points

    @property
    def size(self) -> int:
        """The exact number of points; len() fails once it passes sys.maxsize."""
        if self._factor is None:
            return len(self._points)
        return len(self._factor) ** self.d

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.points)

    def __contains__(self, v) -> bool:
        v = tuple(v)
        if self._index is None:
            members = self._points if self._factor is None else self._factor
            object.__setattr__(self, "_index", frozenset(members))
        if self._factor is None:
            return v in self._index
        return len(v) == self.d and all(c in self._index for c in v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        if (self.m, self.d, self.base, self.size) != (other.m, other.d, other.base, other.size):
            return False
        if self._factor is not None and other._factor is not None:
            return self._factor == other._factor
        if self._factor is None and other._factor is None:
            return self._points == other._points
        listed, lazy = (self, other) if self._factor is None else (other, self)
        return all(v in lazy for v in listed._points)

    def __hash__(self) -> int:
        return hash((self.m, self.d, self.base, self.size))

    def __repr__(self) -> str:
        return f"PointSet(m={self.m!r}, d={self.d}, size={self.size}, base={self.base!r})"

    def as_array(self) -> np.ndarray:
        if self._points is None:
            self._listable()
            factor = np.array(self._factor, dtype=np.int64)
            return factor[np.indices((len(factor),) * self.d).reshape(self.d, -1).T]
        return np.array(self._points, dtype=np.int64).reshape(len(self), self.d)

    def indicator(self) -> GridFunction:
        return GridFunction.indicator(self.m, self.d, self.points)


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")


def distance_set(E: PointSet) -> set[int]:
    """Norms of pairwise differences."""
    return {norm(E.m, vsub(E.m, x, y)) for x in E for y in E}


def _tally(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values over (values, weights) blocks, with summed weights.

    Blocks are reduced and merged into the running tally as in _residues.
    """
    keys = counts = np.empty(0, dtype=np.int64)
    pending, held = [], 0
    for values, weights in blocks:
        pending.append(_merge_counts([(values.ravel(), weights.ravel())]))
        held += len(pending[-1][0])
        if held >= len(keys):
            keys, counts = _merge_counts([(keys, counts), *pending])
            pending, held = [], 0
    return _merge_counts([(keys, counts), *pending])


def _row_blocks(rows: int, width: int, q: int) -> Iterator[slice]:
    """Slices covering range(rows), for rows of `width` values each.

    The first block holds about q values, and each next one twice as many,
    up to _CHUNK_BYTES of int64: a scan that saturates early stops after a
    few small blocks, and one that does not pays about log2(cap / q) extra
    blocks.
    """
    cap = max(1, _CHUNK_BYTES // (8 * max(1, width)))
    step, s = min(cap, max(1, q // max(1, width))), 0
    while s < rows:
        yield slice(s, min(rows, s + step))
        s, step = s + step, min(cap, 2 * step)


def _dot_blocks(E: PointSet) -> Iterator[np.ndarray]:
    """x.y mod q over all ordered pairs, one block of rows x at a time
    (see _row_blocks).

    The sum is reduced mod q after every coordinate, so no intermediate
    exceeds q**2 + q, which fits int64 for every q up to MAX_Q.
    """
    pts, q = E.as_array(), E.m.q
    for rs in _row_blocks(len(pts), len(pts), q):
        rows = pts[rs]
        block = np.zeros((len(rows), len(pts)), dtype=np.int64)
        for k in range(E.d):
            block += rows[:, k, None] * pts[None, :, k]
            block %= q
        yield block


def _area_blocks(E: PointSet) -> Iterator[np.ndarray]:
    """det(x - z, y - z) mod q over all triples, one block of (z, x) rows at
    a time (see _row_blocks).

    With a = x - z, the determinant is a0*y1 - a1*y0 - (a0*z1 - a1*z0);
    every term is below q**2, so nothing overflows int64 for q up to MAX_Q.
    """
    n, q = len(E), E.m.q
    pts = E.as_array()
    for rs in _row_blocks(n * n, n, q):
        z, x = np.divmod(np.arange(rs.start, rs.stop), n)
        a = (pts[x] - pts[z]) % q  # x - z, one row per (z, x)
        block = a[:, :1] * pts[None, :, 1]
        block -= a[:, 1:] * pts[None, :, 0]
        block -= ((a[:, 0] * pts[z, 1] - a[:, 1] * pts[z, 0]) % q)[:, None]
        block %= q
        yield block


def sumset_cost(q: int, a: int, d: int) -> int:
    """Bound on the operations of the sumset path over A^d with |A| = a.

    The a**2 products give A.A, of at most min(q, a(a + 1)/2) values as
    a a' = a' a.  S_(k+1) = S_k + A.A then costs |S_k| * |A.A| sums, where
    S_k, the k-fold sumset of A.A, is at most all of Z_q and at most the
    number of k-element multisets of A.A.  The arrays held are bounded by
    the same terms.  The sum stops growing once it passes SUMSET_BUDGET.
    """
    pp = min(q, a * (a + 1) // 2)
    total = a * a
    for k in range(1, d):
        size = min(q, math.comb(pp + k - 1, k))
        if size == q or pp <= 1:  # no further growth
            return total + size * pp * (d - k)
        total += size * pp
        if total > SUMSET_BUDGET:
            break
    return total


def _is_product(E: PointSet) -> bool:
    return E.base is not None and E._factor is not None


def _sumset_base(E: PointSet, counted: bool) -> np.ndarray:
    """E's factor A as int64, once the sumset path is within its budget."""
    a, d = len(E.base), E.d
    cost = sumset_cost(E.m.q, a, d)
    if cost > SUMSET_BUDGET:
        raise ValueError(
            f"dot products of A^{d} with |A| = {a} may take {cost} sumset operations, "
            f"over the {SUMSET_BUDGET}-operation cap"
        )
    if counted and a ** (2 * d) >= 2**63:
        raise ValueError(
            f"pair counts of A^{d} with |A| = {a} reach {a}^{2 * d} >= 2^63, past the int64 cap"
        )
    return np.array(E.base, dtype=np.int64)


def _pair_blocks(x: np.ndarray, y: np.ndarray, q: int, op) -> Iterator[tuple[int, np.ndarray]]:
    """(s, op(x[s : s + k, None], y) mod q) over row blocks of x, each at
    most _CHUNK_BYTES of int64; op is np.multiply or np.add, so every
    entry stays below q**2 before it is reduced."""
    step = max(1, _CHUNK_BYTES // (8 * max(1, len(y))))
    for s in range(0, len(x), step):
        yield s, op(x[s : s + step, None], y[None, :]) % q


def _convolve(x, cx, y, cy, q: int, op) -> tuple[np.ndarray, np.ndarray]:
    """Distinct op(x_i, y_j) mod q, each with the sum of its weights cx_i * cy_j."""
    return _tally(
        (block, cx[s : s + len(block), None] * cy[None, :])
        for s, block in _pair_blocks(x, y, q, op)
    )


def _dot_sumset(E: PointSet) -> np.ndarray:
    """The d-fold sumset of A.A, sorted; stops once it is all of Z_q."""
    q, a = E.m.q, _sumset_base(E, counted=False)
    prods = _residues((b for _, b in _pair_blocks(a, a, q, np.multiply)), q)
    found = prods
    for _ in range(E.d - 1):
        if len(found) == q:
            break
        found = _residues((b for _, b in _pair_blocks(found, prods, q, np.add)), q)
    return found


def _dot_convolution(E: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The d-fold cyclic convolution of the A.A histogram, as sorted t and nu(t) > 0."""
    q, a = E.m.q, _sumset_base(E, counted=True)
    ones = np.ones(len(a), dtype=np.int64)
    prods = _convolve(a, ones, a, ones, q, np.multiply)
    keys, counts = prods
    for _ in range(E.d - 1):
        keys, counts = _convolve(keys, counts, *prods, q, np.add)
    return keys, counts


class _DotCounts(Mapping):
    """nu(t) for every t in Z_q, held as the sorted t with nu(t) > 0."""

    def __init__(self, q: int, keys: np.ndarray, counts: np.ndarray) -> None:
        self._q, self._keys, self._counts = q, keys, counts

    def __getitem__(self, t) -> int:
        try:
            t = operator.index(t)
        except TypeError:
            raise KeyError(t) from None
        if not 0 <= t < self._q:
            raise KeyError(t)
        i = int(np.searchsorted(self._keys, t))
        hit = i < len(self._keys) and self._keys[i] == t
        return int(self._counts[i]) if hit else 0

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._q))

    def __len__(self) -> int:
        return self._q

    def items(self) -> ItemsView:
        return _DotItems(self)

    def values(self) -> ValuesView:
        return _DotValues(self)

    def _walk(self) -> Iterator[tuple[int, int]]:
        """(t, nu(t)) for t = 0..q-1, stepping through the sorted keys alongside."""
        t = 0
        for k, c in zip(self._keys.tolist(), self._counts.tolist()):
            yield from zip(range(t, k), itertools.repeat(0))
            yield k, c
            t = k + 1
        yield from zip(range(t, self._q), itertools.repeat(0))


class _DotItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self._mapping._walk()


class _DotValues(ValuesView):
    def __iter__(self) -> Iterator[int]:
        return (c for _, c in self._mapping._walk())


def dot_product_set(E: PointSet) -> set[int]:
    """Dot products over ordered pairs.

    For a set built by PointSet.product these are the d-fold sumset of
    A.A = {a a' : a, a' in A} in Z_q, found without listing A^d and refused
    past SUMSET_BUDGET operations (see sumset_cost).  Any other set is
    scanned in row blocks of at most _CHUNK_BYTES of int64 each, with at
    most four blocks' worth alive at once.  Both stop once all q values
    have appeared.
    """
    return set(_dot_values(E).tolist())


def dot_product_count(E: PointSet) -> int:
    """len(dot_product_set(E)), without building the Python set."""
    return len(_dot_values(E))


def _dot_values(E: PointSet) -> np.ndarray:
    if _is_product(E):
        return _dot_sumset(E)
    return _residues(_dot_blocks(E), E.m.q)


def dot_product_counts(E: PointSet) -> Mapping[int, int]:
    """nu(t), the number of ordered pairs with x.y = t, for every t in Z_q.

    The table is held sparse, so no length-q array is allocated.  For a set
    built by PointSet.product, nu is the d-fold cyclic convolution of the
    histogram of A.A, exact in int64; it is refused past SUMSET_BUDGET or
    once |A|**(2d) reaches 2**63.  Any other set is tallied over the row
    blocks of its pair scan.
    """
    if _is_product(E):
        return _DotCounts(E.m.q, *_dot_convolution(E))
    return _DotCounts(E.m.q, *_tally((b, np.ones_like(b)) for b in _dot_blocks(E)))


def triangle_area_set(E: PointSet) -> set[int]:
    """Nonzero parallelogram determinants det(x - z, y - z) over vertex triples.

    Blocks of (z, x) rows against every y, at most _CHUNK_BYTES of int64
    each, with at most four blocks' worth alive at once; the scan stops
    once all q - 1 nonzero residues have appeared.
    """
    return set(_area_values(E).tolist())


def triangle_area_count(E: PointSet) -> int:
    """len(triangle_area_set(E)), without building the Python set."""
    return len(_area_values(E))


def _area_values(E: PointSet) -> np.ndarray:
    if E.d != 2:
        raise DimensionMismatch("areas are a planar counter")
    return _residues(_area_blocks(E), E.m.q, start=1)


def rotation_correlation(E: PointSet, theta: Rotation) -> dict[Vec, int]:
    """nu_theta(t), ordered pairs with u - theta(v) = t, densely over Z_q^2.

    The set is rotated once; the codes t0*q + t1 of the differences are
    bincounted one block of rows u at a time, each block at most
    _CHUNK_BYTES of int64, so memory stays O(_CHUNK_BYTES + q**2) in |E|.
    """
    if E.d != 2:
        raise DimensionMismatch("rotation correlation is a planar counter")
    q, pts = E.m.q, E.as_array()
    a, b = theta.a, theta.b
    # every product stays below q**2, inside int64 for q up to MAX_Q
    r0 = (a * pts[:, 0] - b * pts[:, 1]) % q
    r1 = (b * pts[:, 0] + a * pts[:, 1]) % q
    counts = np.zeros(q * q, dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * max(1, len(pts))))
    for s in range(0, len(pts), step):
        rows = pts[s : s + step]
        code = rows[:, :1] - r0
        code %= q
        code *= q
        t1 = rows[:, 1:] - r1
        t1 %= q
        code += t1
        counts += np.bincount(code.ravel(), minlength=q * q)
    return dict(zip(itertools.product(range(q), repeat=2), counts.tolist()))


def _as_fraction(x) -> Fraction:
    if isinstance(x, np.generic):
        x = x.item()
    return Fraction(x)


def moment_bound(table, n: int) -> tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the mean-plus-spread bound on sum f(z)**n.

    lhs = sum f**n and
    rhs = |F| mean**n + n(n-1)/2 * max**(n-2) * sum (f - mean)**2,
    both as Fractions so the comparison is exact.  Equality holds exactly
    for constant tables.  The spread is taken as sum f**2 - mean * sum f;
    integer tables (numpy integers included) are summed in Python ints,
    and any other value sends the whole table through Fractions.
    """
    values = table.values() if isinstance(table, Mapping) else table
    vals = list(values)
    if not vals:
        raise ValueError("the table must be nonempty")
    if n < 2:
        raise ValueError(f"moment order must be at least 2, got {n}")
    if all(isinstance(v, (int, np.integer)) for v in vals):
        vals = [int(v) for v in vals]
    else:
        vals = [_as_fraction(v) for v in vals]
    if min(vals) < 0:
        raise ValueError("table values must be nonnegative")
    count, total = len(vals), sum(vals)
    mean = Fraction(total, count)
    spread = sum(v * v for v in vals) - mean * total
    lhs = Fraction(sum(v**n for v in vals))
    rhs = count * mean**n + Fraction(n * (n - 1), 2) * max(vals) ** (n - 2) * spread
    return lhs, rhs


def difference_stratum_counts(m: Modulus) -> tuple[list[int], int]:
    """Closed-form pair counts r_i and the weighted sum r = sum r_i p**i.

    r_i counts ordered pairs of plane points whose difference lies in
    stratum i, i = 1 .. l-1; r is bounded by 2 p**(4l-1).  For l = 1 the
    range is empty and r = 0.
    """
    p, l, q = m.p, m.l, m.q
    r_list = [q * q * (p ** (2 * (l - i)) - p ** (2 * (l - i - 1))) for i in range(1, l)]
    r = sum(ri * p**i for i, ri in enumerate(r_list, start=1))
    return r_list, r


def difference_stratum_census(m: Modulus) -> list[int]:
    """Literal pair enumeration behind the r_i formulas.

    Returns the count of ordered plane-point pairs whose difference lies
    in stratum i, for i = 0 .. l-1 (zero differences fall in stratum l
    and are dropped).
    """
    q, l = m.q, m.l
    x = np.arange(q)
    # dv[x_c * q + y_c] = v(x_c - y_c); the pair's stratum is the min over c
    dv = valuation_table(m)[(x[:, None] - x[None, :]) % q].ravel()
    counts = [0] * l
    step = max(1, _CENSUS_CHUNK_BYTES // dv.size)
    for s in range(0, dv.size, step):
        strat = np.minimum(dv[s : s + step, None], dv[None, :])
        for i in range(l):
            counts[i] += int(np.count_nonzero(strat == i))
    return counts


def sumset(E: PointSet, line: Line) -> set[Vec]:
    """Pointwise sums e + x over the line's points."""
    if E.d != 2:
        raise DimensionMismatch("line sumsets are a planar counter")
    return {vadd(E.m, e, x) for e in E for x in line.points()}


def restricted_line_count(E: PointSet, x: Vec, i: int) -> int:
    """Size of E's slice along the unit multiples {s*x : s a unit of Z_{p**(l-i)}}.

    Only meaningful for product sets, where the count is capped by both
    the number of scalars and the size of the one-dimensional base.
    """
    if E.base is None:
        raise ValueError("the point set was not built as a product; no base recorded")
    m = E.m
    if not 0 <= i <= m.l - 1:
        raise ValueError(f"depth must lie in [0, {m.l - 1}], got {i}")
    w = m.p ** (m.l - i)
    slice_pts = {tuple((s * c) % m.q for c in x) for s in range(w) if s % m.p != 0}
    return sum(1 for t in slice_pts if t in E)
