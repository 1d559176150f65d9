"""Point sets in Z_q^d and the exact configuration counters over them.

Every counter is an exhaustive enumeration, vectorized with numpy when
the triple or pair count warrants it, in blocks sized in bytes; the set
counters stop early once every residue has been seen.  Dot products of a
product set A^d are the exception: they are counted exactly as a sumset
of A.A, without listing A^d.  The rotation correlation is one FFT
correlation rounded to exact counts, the one the t2 orbit cover takes
for |E ∩ (E - w)|.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import Counter
from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from fractions import Fraction

import numpy as np

from . import _census
from ._census import FULL_GRID_CAP, _exceeds
from .fourier import GridFunction, _correlation
from .geometry import DimensionMismatch, Line, Vec, _read_points, norm, vadd, valuation_table, vsub
from .orthogroup import Rotation
from .ring import Modulus

__all__ = [
    "FULL_GRID_CAP",
    "PointSet",
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
    "triangle_area_count",
    "triangle_area_set",
]


class PointSet:
    """A deduplicated, lexicographically sorted subset of Z_q^d, in one of two shapes.

    A listed set holds its points as one read-only (n, d) int64 array in
    lexicographic order, which as_array() returns and every counter and
    membership test reads; .points and iteration make Python tuples from it.
    A product A x ... x A, from `product` or from `full_grid` (where A = Z_q),
    keeps only `base`, the sorted A, and d, which size, membership, equality,
    repr and the dot counters read; its array is filled on first use, which
    is refused past FULL_GRID_CAP.  `base` is None for every listed set.
    Sets with the same m, d and points are equal whatever their shape.  Instances are immutable.
    """

    __slots__ = ("m", "d", "base", "_points")

    def __init__(self, m: Modulus, d: int, points: Iterable[Vec]) -> None:
        _check_dimension(d)
        pts = _read_points(m, d, points)
        rows = pts[np.lexsort(pts.T[::-1])]
        self._fill(m, d, None, rows[_census._heads(rows)])

    def _fill(self, m, d, base, rows) -> "PointSet":
        if rows is not None:
            rows.flags.writeable = False
        for name, value in zip(self.__slots__, (m, d, base, rows)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"PointSet is immutable; cannot set {name}")

    @classmethod
    def _made(cls, m: Modulus, d: int, *, rows=None, base=None) -> "PointSet":
        """A set built by the library, taken as given with no reduction or sort:
        either `rows`, an (n, d) int64 array of distinct residue rows in
        [0, q) in lexicographic order, or the sorted `base` of a product."""
        return cls.__new__(cls)._fill(m, d, base, rows)

    @classmethod
    def product(cls, m: Modulus, base: Iterable[int], d: int) -> "PointSet":
        """The d-fold product A x ... x A of a subset A of Z_q."""
        _check_dimension(d)
        cells = base[:, None] if isinstance(base, np.ndarray) else [(c,) for c in base]
        return cls._made(m, d, base=tuple(sorted(set(_read_points(m, 1, cells)[:, 0].tolist()))))

    @classmethod
    def full_grid(cls, m: Modulus, d: int) -> "PointSet":
        """Z_q^d, the product of A = Z_q."""
        _check_dimension(d)
        _census._grid_shape(m.q, d)
        return cls._made(m, d, base=tuple(range(m.q)))

    @property
    def points(self) -> tuple[Vec, ...]:
        """The points as tuples, made from as_array() on every call."""
        return tuple(self)

    @property
    def size(self) -> int:
        """The exact number of points; len() fails once it passes sys.maxsize."""
        return len(self._points) if self.base is None else len(self.base) ** self.d

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Vec]:
        # zip over the columns builds each tuple in C, about twice as fast
        # as a tuple() call per row
        return zip(*self.as_array().T.tolist())

    def __contains__(self, v) -> bool:
        try:
            row = _read_points(self.m, self.d, [v])[0].tolist()
        except ValueError:
            return False
        if self.base is not None:
            return all(bisect.bisect_left(self.base, c) < bisect.bisect(self.base, c) for c in row)
        lo, hi = 0, len(self._points)
        for k, c in enumerate(row):  # rows that agree before column k are sorted by it
            lo, hi = lo + self._points[lo:hi, k].searchsorted([c, c + 1])
        return bool(lo < hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        if (self.m, self.d) != (other.m, other.d):
            return False
        if self.base is not None and other.base is not None:
            return self.base == other.base
        if self.base is None and other.base is None:
            return np.array_equal(self._points, other._points)
        rows, base = (self._points, other.base) if self.base is None else (other._points, self.base)
        # distinct rows of A^d are all of it once there are |A|**d of them
        return not _exceeds(len(base), self.d, len(rows)) and bool(np.isin(rows, base).all())

    def __hash__(self) -> int:
        return hash((self.m, self.d))

    def __repr__(self) -> str:
        size = len(self._points) if self.base is None else f"{len(self.base)}**{self.d}"
        return f"PointSet(m={self.m!r}, d={self.d}, size={size}, base={self.base!r})"

    def as_array(self) -> np.ndarray:
        """The points as a read-only (n, d) int64 array in lexicographic order,
        the same array on every call; a product's is filled on the first."""
        if self._points is None:
            if _exceeds(len(self.base), self.d, _census.FULL_GRID_CAP):
                raise ValueError(f"product A^{self.d} with |A| = {len(self.base)} exceeds the "
                                 f"{_census.FULL_GRID_CAP}-point cap")
            cells = np.indices((len(self.base),) * self.d).reshape(self.d, -1).T
            self._fill(self.m, self.d, self.base, np.array(self.base, dtype=np.int64)[cells])
        return self._points

    def indicator(self) -> GridFunction:
        return GridFunction.indicator(self.m, self.d, self.as_array())


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")


def distance_set(E: PointSet) -> set[int]:
    """Norms of pairwise differences."""
    return {norm(E.m, vsub(E.m, x, y)) for x in E for y in E}


def _dot_blocks(E: PointSet) -> Iterator[np.ndarray]:
    """x.y mod q over all ordered pairs, in doubling blocks of rows x, each
    charged to a _Meter (_blocks) and at most _SCAN_BYTES.

    The sum is reduced mod q after every coordinate, so no intermediate
    exceeds q**2 + q, which fits int64 for every q up to MAX_Q.
    """
    pts, q = E.as_array(), E.m.q
    meter = _census._Meter("the dot product scan")
    for rs in _census._blocks(len(pts), len(pts), _census._SCAN_BYTES, first=q, meter=meter):
        rows = pts[rs]
        block = np.zeros((len(rows), len(pts)), dtype=np.int64)
        for k in range(E.d):
            block += rows[:, k, None] * pts[None, :, k]
            block %= q
        yield block


def _area_blocks(E: PointSet) -> Iterator[np.ndarray]:
    """det(x - z, y - z) mod q over all triples, one block of (z, x) rows at
    a time, as in _dot_blocks.

    With a = x - z, the determinant is a0*y1 - a1*y0 - (a0*z1 - a1*z0);
    every term and partial sum stays within q**2 + q of 0, so the blocks
    are int32 below q = 46341 (_int_dtype) and int64 up to MAX_Q.
    """
    n, q = len(E), E.m.q
    pts = E.as_array().astype(_census._int_dtype(q * q + q), copy=False)
    meter = _census._Meter("the triangle area scan")
    for rs in _census._blocks(n * n, n, _census._SCAN_BYTES, first=q, meter=meter):
        z, x = np.divmod(np.arange(rs.start, rs.stop), n)
        a = (pts[x] - pts[z]) % q  # x - z, one row per (z, x)
        block = a[:, :1] * pts[None, :, 1]
        block -= a[:, 1:] * pts[None, :, 0]
        block -= ((a[:, 0] * pts[z, 1] - a[:, 1] * pts[z, 0]) % q)[:, None]
        block %= q
        yield block


def _sumset_meter(E: PointSet) -> _census._Meter:
    return _census._Meter(f"dot products of A^{E.d} with |A| = {len(E.base)}")


def _pair_blocks(x, y, q: int, op, meter=None) -> Iterator[tuple[int, np.ndarray]]:
    """(s, op(x[s : s + k, None], y) mod q) over row blocks of x of at most
    _SCAN_BYTES of int64; op is np.multiply or np.add, so every entry stays
    below q**2 until reduced.  Given a meter, each block is charged as it is
    handed out (_census._blocks), so a reader that stops once saturated pays
    only for the blocks it read."""
    for rs in _census._blocks(len(x), len(y), _census._SCAN_BYTES, meter=meter):
        yield rs.start, op(x[rs, None], y[None, :]) % q


def _convolve(x, cx, y, cy, q: int, op, meter) -> tuple[np.ndarray, np.ndarray]:
    """Distinct op(x_i, y_j) mod q, each with the sum of its weights cx_i * cy_j,
    once the meter is charged all len(x) len(y) pairs."""
    meter.charge(len(x) * len(y))
    return _census._tally(
        (block, cx[s : s + len(block), None] * cy[None, :])
        for s, block in _pair_blocks(x, y, q, op)
    )


def _dot_sumset(E: PointSet) -> np.ndarray:
    """S_d, the d-fold sumset of A.A, sorted, in at most q steps whatever d is;
    each step stops once it holds all of Z_q, as A.A = Z_q does for the full grid.

    S_(k+1) = S_k + A.A holds S_k + p for each p in A.A, so once the two are
    the same size S_(k+1) = S_k + p, then S_(k+2) = S_k + A.A + p = S_(k+1) + p,
    and each later step shifts by p.  Until then |S_k| grows.
    """
    q, d, a, meter = E.m.q, E.d, np.array(E.base, dtype=np.int64), _sumset_meter(E)
    if misses_zero := bool((a % E.m.p ** ((E.m.l + 1) // 2)).all()):  # 2 v(a) < l over A, and
        meter.charge(len(a) ** 2)  # a a' = 0 needs v(a) + v(a') >= l: the step cannot stop early
    pairs = _pair_blocks(a, a, q, np.multiply, None if misses_zero else meter)
    found = prods = _census._residues((b for _, b in pairs), q)
    for k in range(1, d):
        if len(found) == q:
            break
        sums = _pair_blocks(found, prods, q, np.add, meter)
        grown = _census._residues((b for _, b in sums), q)
        if len(grown) == len(found):  # prods[:1] is p, or empty when A.A is
            return np.sort((grown + (d - k - 1) % q * prods[:1]) % q)
        found = grown
    return found


def _dot_convolution(E: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The d-fold cyclic convolution of the A.A histogram, as sorted t and nu(t) > 0."""
    q, d, size = E.m.q, E.d, len(E.base)
    if size <= 1:  # empty, or the one pair (a, ..., a).(a, ..., a) = d a**2
        keys = [d % q * E.base[0] ** 2 % q] if size else []
        return np.array(keys, dtype=np.int64), np.ones(size, dtype=np.int64)
    # |A| >= 2 and d >= 32 give |A|**(2d) >= 2**64, so the power is formed only below
    if d >= 32 or size ** (2 * d) >= 2**63:
        raise ValueError(
            f"pair counts of A^{d} with |A| = {size} reach {size}^{2 * d} >= 2^63, "
            "past the int64 cap"
        )
    a, ones = np.array(E.base, dtype=np.int64), np.ones(size, dtype=np.int64)
    meter = _sumset_meter(E)
    keys, counts = prods = _convolve(a, ones, a, ones, q, np.multiply, meter)
    for _ in range(d - 1):
        keys, counts = _convolve(keys, counts, *prods, q, np.add, meter)
    return keys, counts


class _CountTable(Mapping):
    """nu(t) for every t in Z_q^d, held as two int64 arrays: the sorted codes
    t.(q**(d-1), ..., q, 1) of the t with nu(t) > 0, and their counts.  Keys are
    ints at d = 1, else d-tuples; the walks run in lexicographic order with zeros."""

    def __init__(self, q: int, d: int, codes: np.ndarray, counts: np.ndarray) -> None:
        self._q, self._d, self._codes, self._counts = q, d, codes, counts

    def __getitem__(self, t) -> int:
        coords = (t,) if self._d == 1 else t if isinstance(t, tuple) else ()
        try:
            code = np.ravel_multi_index([operator.index(c) for c in coords], (self._q,) * self._d)
        except (TypeError, ValueError):
            raise KeyError(t) from None
        i = int(np.searchsorted(self._codes, code))
        return int(self._counts[i]) if i < len(self._codes) and self._codes[i] == code else 0

    def __iter__(self) -> Iterator:
        axis = range(self._q)
        return iter(axis) if self._d == 1 else itertools.product(axis, repeat=self._d)

    def __len__(self) -> int:
        return self._q**self._d

    def __eq__(self, other) -> bool:
        if not isinstance(other, _CountTable):
            return super().__eq__(other)
        return (self._q, self._d) == (other._q, other._d) and all(
            map(np.array_equal, (self._codes, self._counts), (other._codes, other._counts)))

    def items(self) -> ItemsView:
        return _CountItems(self)

    def values(self) -> ValuesView:
        return _CountValues(self)

    def _nonzero(self) -> tuple[np.ndarray, np.ndarray]:  # the t with nu(t) > 0, as rows
        return np.stack(np.unravel_index(self._codes, (self._q,) * self._d), axis=1), self._counts


class _CountItems(ItemsView):
    def __iter__(self) -> Iterator[tuple]:
        return zip(self._mapping, _CountValues(self._mapping))


class _CountValues(ValuesView):
    def __iter__(self) -> Iterator[int]:
        t, table = 0, self._mapping  # each count in key order, after the zeros before it
        for k, c in zip(table._codes.tolist(), table._counts.tolist()):
            yield from itertools.repeat(0, k - t)
            yield c
            t = k + 1
        yield from itertools.repeat(0, len(table) - t)


def dot_product_set(E: PointSet) -> set[int]:
    """Dot products over ordered pairs.

    For a product A^d (the full grid is Z_q^d) these are the d-fold sumset
    of A.A = {a a' : a, a' in A} in Z_q, found without listing A^d and
    refused past _OP_CAP operations (see _dot_sumset).  A listed set is
    scanned in row blocks of at most _SCAN_BYTES of int64 each, with at
    most four blocks' worth alive at once.  Both stop once all q values
    have appeared.
    """
    return set(_dot_values(E).tolist())


def dot_product_count(E: PointSet) -> int:
    """len(dot_product_set(E)), without building the Python set."""
    return len(_dot_values(E))


def _dot_values(E: PointSet) -> np.ndarray:
    if E.base is not None:
        return _dot_sumset(E)
    return _census._residues(_dot_blocks(E), E.m.q)


def dot_product_counts(E: PointSet) -> Mapping[int, int]:
    """nu(t), the number of ordered pairs with x.y = t, for every t in Z_q.

    The table is held sparse, so no length-q array is allocated.  For a
    product A^d, nu is the d-fold cyclic convolution of the histogram of
    A.A, exact in int64; it is refused past _OP_CAP or once |A|**(2d)
    reaches 2**63.  A listed set is tallied over the row blocks of its
    pair scan.
    """
    if E.base is not None:
        return _CountTable(E.m.q, 1, *_dot_convolution(E))
    return _CountTable(E.m.q, 1, *_census._tally((b, np.ones_like(b)) for b in _dot_blocks(E)))


def triangle_area_set(E: PointSet) -> set[int]:
    """Nonzero parallelogram determinants det(x - z, y - z) over vertex triples.

    Blocks of (z, x) rows against every y, at most _SCAN_BYTES of int64
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
    return _census._residues(_area_blocks(E), E.m.q, start=1)


def rotation_correlation(E: PointSet, theta: Rotation) -> Mapping[Vec, int]:
    """nu_theta(t), ordered pairs with u - theta(v) = t, for every t in Z_q^2.

    The correlation of the indicators of E and theta E (fourier._correlation),
    kept as its t with nu_theta(t) > 0: time and memory follow the q**2 grid,
    of at most FULL_GRID_CAP points, not the |E|**2 pairs; theta is a rotation mod q.
    """
    if E.d != 2:
        raise DimensionMismatch("rotation correlation is a planar counter")
    q, (x, y), a, b = E.m.q, E.as_array().T, theta.a, theta.b
    if theta.m != E.m or (a * a + b * b) % q != 1:
        raise ValueError(f"({a}, {b}) over {theta.m} is not a rotation of Z_{q}")
    # every product stays below q**2, inside int64 for q up to MAX_Q
    turned = GridFunction.indicator(E.m, 2, np.stack(((a * x - b * y) % q, (b * x + a * y) % q), 1))
    counts = _correlation(E.indicator().values, turned.values).ravel()
    codes = np.flatnonzero(counts)
    return _CountTable(q, 2, codes, counts[codes])


def moment_bound(table, n: int) -> tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the mean-plus-spread bound on sum f(z)**n.

    lhs = sum f**n and
    rhs = |F| mean**n + n(n-1)/2 * max**(n-2) * sum (f - mean)**2,
    both as Fractions so the comparison is exact.  Equality holds exactly
    for constant tables.  The sums run over the distinct values with their
    multiplicities, read from a count table's arrays or in one pass over any
    other table.  Integers (numpy's too) are summed in Python ints, and any
    other value sends them all through Fractions.
    """
    if isinstance(table, _CountTable):  # its nonzero counts, and the zeros between them
        hist = Counter(table._counts.tolist())
        hist[0] += len(table) - len(table._counts)
    else:
        hist = Counter(table.values() if isinstance(table, Mapping) else table)
    if not hist:
        raise ValueError("the table must be nonempty")
    if n < 2:
        raise ValueError(f"moment order must be at least 2, got {n}")
    hist = [(v.item() if isinstance(v, np.generic) else v, k) for v, k in hist.items()]
    if not all(isinstance(v, int) for v, _ in hist):
        hist = [(Fraction(v), k) for v, k in hist]
    if min(hist)[0] < 0:
        raise ValueError("table values must be nonnegative")
    count, total, squares, lhs = (sum(v**e * k for v, k in hist) for e in (0, 1, 2, n))
    mean = Fraction(total, count)
    spread = squares - mean * total  # sum (f - mean)**2, a Fraction
    return Fraction(lhs), count * mean**n + n * (n - 1) * max(hist)[0] ** (n - 2) * spread / 2


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
    """Pair count behind the r_i formulas, from one coordinate histogram.

    Returns the count of ordered plane-point pairs whose difference lies
    in stratum i, for i = 0 .. l-1 (zero differences fall in stratum l
    and are dropped).  A difference's stratum is the lesser valuation of
    its coordinates, so with S_i the number of the q**2 coordinate pairs
    (x_c, y_c) with v(x_c - y_c) >= i, the census is S_i**2 - S_{i+1}**2.
    """
    q, l = m.q, m.l
    x = np.arange(q)
    per_j = np.bincount(valuation_table(m)[(x[:, None] - x[None, :]) % q].ravel(), minlength=l + 1)
    deeper = np.cumsum(per_j[::-1])[::-1].tolist() + [0]
    return [deeper[i] ** 2 - deeper[i + 1] ** 2 for i in range(l)]


def sumset(E: PointSet, line: Line) -> set[Vec]:
    """Pointwise sums e + x over the line's points."""
    if E.d != 2:
        raise DimensionMismatch("line sumsets are a planar counter")
    if line.m != E.m:
        raise ValueError(f"a line over {line.m} is not a line of {E.m}")
    return {vadd(E.m, e, x) for e in E for x in line.points()}


def restricted_line_count(E: PointSet, x: Vec, i: int) -> int:
    """Size of E's slice along the unit multiples {s*x : s a unit of Z_{p**(l-i)}}.

    Only meaningful for product sets, the full grid among them, where the
    count is capped by both the number of scalars and the size of the
    one-dimensional base.
    """
    if E.base is None:
        raise ValueError("the point set was not built as a product; no base recorded")
    m = E.m
    if not 0 <= i <= m.l - 1:
        raise ValueError(f"depth must lie in [0, {m.l - 1}], got {i}")
    x, w = _read_points(m, E.d, [x])[0].tolist(), m.p ** (m.l - i)
    return sum(t in E for t in {tuple(s * c % m.q for c in x) for s in range(w) if s % m.p})
