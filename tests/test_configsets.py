"""Configuration counters checked against small brute-force oracles."""

import itertools
import operator
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zqgeom import _census, configsets, orthogroup
from zqgeom.configsets import (
    PointSet,
    difference_stratum_census,
    difference_stratum_counts,
    distance_set,
    dot_product_count,
    dot_product_counts,
    dot_product_set,
    moment_bound,
    restricted_line_count,
    rotation_correlation,
    sumset,
    triangle_area_count,
    triangle_area_set,
)
from zqgeom.fourier import GridFunction
from zqgeom.geometry import (
    DimensionMismatch,
    det2,
    dot,
    lines_in_stratum,
    spanned_line,
    stratum_of,
    stratum_size,
    vadd,
    vsub,
)
from zqgeom.harness import random_subset
from zqgeom.orthogroup import Rotation, so2_elements, triangle_classes
from zqgeom.ring import Modulus

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
M27 = Modulus(3, 3)
M25 = Modulus(5, 2)


def test_point_set_canonicalizes():
    ps = PointSet(M9, 2, ((10, -1), (1, 8), (0, 0)))
    assert ps.points == ((0, 0), (1, 8))
    assert len(ps) == 2
    assert (1, 8) in ps and (2, 2) not in ps
    assert [1, 8] in ps  # membership coerces to tuples


def test_point_set_dimension_check():
    with pytest.raises(DimensionMismatch):
        PointSet(M9, 2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        PointSet(M9, 0, ())


def test_product_and_full_grid():
    ps = PointSet.product(M3, (2, 1, 4), 2)
    assert ps.base == (1, 2)
    assert ps.points == ((1, 1), (1, 2), (2, 1), (2, 2))
    full = PointSet.full_grid(M3, 2)
    assert len(full) == 9 and full.base == (0, 1, 2)
    with pytest.raises(ValueError):
        PointSet.full_grid(Modulus(7, 3), 4)


def test_product_past_sys_maxsize_has_an_exact_size():
    E = PointSet.product(M3, [2, 1, 0, 3], 40)
    assert E.size == 3**40 >= 2**63
    with pytest.raises(OverflowError):
        len(E)
    with pytest.raises(ValueError, match=f"{configsets.FULL_GRID_CAP}-point cap"):
        E.points
    with pytest.raises(ValueError, match=f"{configsets.FULL_GRID_CAP}-point cap"):
        E.as_array()
    assert repr(E) == f"PointSet(m={M3!r}, d=40, size=3**40, base=(0, 1, 2))"
    same = PointSet.product(M3, [0, 1, 2], 40)
    assert E == same and hash(E) == hash(same)
    assert E != PointSet.product(M3, [0, 1], 40) and E != PointSet.product(M3, [0, 1, 2], 39)
    assert dot_product_count(E) == 3


def test_distance_set_small():
    assert distance_set(PointSet.full_grid(M3, 2)) == {0, 1, 2}
    two = PointSet(M9, 2, ((0, 0), (1, 2)))
    assert distance_set(two) == {0, 5}


def test_dot_product_set_and_counts():
    E = PointSet(M3, 2, ((1, 0), (0, 1)))
    assert dot_product_set(E) == {0, 1}
    assert dot_product_counts(E) == {0: 2, 1: 2, 2: 0}
    F = random_subset(M9, 2, 11, seed=2)
    counts = dot_product_counts(F)
    assert sum(counts.values()) == 121
    assert set(counts) == set(range(9))
    assert {t for t, c in counts.items() if c} == dot_product_set(F)


def test_triangle_area_set_examples():
    corner = PointSet(M3, 2, ((0, 0), (1, 0), (0, 1)))
    assert triangle_area_set(corner) == {1, 2}
    collinear = PointSet(M3, 2, ((0, 0), (1, 1), (2, 2)))
    assert triangle_area_set(collinear) == set()
    assert triangle_area_set(PointSet(M3, 2, ())) == set()
    with pytest.raises(DimensionMismatch):
        triangle_area_set(PointSet(M3, 3, ((0, 0, 0),)))


def _areas_brute(E):
    out = set()
    for x in E:
        for y in E:
            for z in E:
                a = det2(E.m, vsub(E.m, x, z), vsub(E.m, y, z))
                if a:
                    out.add(a)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_triangle_area_set_matches_bruteforce(seed):
    E = random_subset(M9, 2, 6, seed=seed)
    assert triangle_area_set(E) == _areas_brute(E)


def test_triangle_area_set_is_congruence_invariant():
    m = M9
    E = random_subset(m, 2, 8, seed=12)
    areas = triangle_area_set(E)
    rot = so2_elements(m)[5]
    turned = PointSet(m, 2, tuple(rot.apply(v) for v in E))
    moved = PointSet(m, 2, tuple(vadd(m, v, (2, 7)) for v in E))
    assert triangle_area_set(turned) == areas
    assert triangle_area_set(moved) == areas


def test_rotation_correlation_identity_rotation():
    E = PointSet(M3, 2, ((0, 0), (1, 1)))
    nu = rotation_correlation(E, Rotation(1, 0, M3))
    assert nu[(0, 0)] == 2 and nu[(1, 1)] == 1 and nu[(2, 2)] == 1
    assert sum(nu.values()) == 4
    assert len(nu) == 9  # dense over the plane


@pytest.mark.parametrize("seed", range(3))
def test_rotation_correlation_totals_and_pointwise_cap(seed):
    E = random_subset(M9, 2, 9, seed=seed)
    for theta in so2_elements(M9):
        nu = rotation_correlation(E, theta)
        assert sum(nu.values()) == 81
        # for fixed t and v the first coordinate u is determined
        assert max(nu.values()) <= len(E)


def test_moment_bound_examples():
    assert moment_bound([1, 0, 0, 0], 3) == (Fraction(1), Fraction(37, 16))
    lhs, rhs = moment_bound({i: 5 for i in range(3)}, 4)
    assert lhs == rhs == 3 * Fraction(5) ** 4


def test_moment_bound_validation():
    with pytest.raises(ValueError):
        moment_bound([], 2)
    with pytest.raises(ValueError):
        moment_bound([1, -1], 2)
    with pytest.raises(ValueError):
        moment_bound([1, 2], 1)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.sampled_from((2, 3, 4)))
def test_moment_bound_holds(values, n):
    lhs, rhs = moment_bound(values, n)
    assert lhs <= rhs


def test_moment_bound_on_correlation_tables():
    E = random_subset(M9, 2, 10, seed=6)
    for theta in so2_elements(M9)[:4]:
        lhs, rhs = moment_bound(rotation_correlation(E, theta), 3)
        assert lhs <= rhs


@pytest.mark.parametrize("q,expected_r", [(9, 1944), (27, 209952), (25, 75000)])
def test_difference_stratum_weighted_sums(q, expected_r):
    m = Modulus.from_q(q)
    r_list, r = difference_stratum_counts(m)
    assert len(r_list) == m.l - 1
    assert r == expected_r
    assert r <= 2 * m.p ** (4 * m.l - 1)


def test_difference_strata_trivial_at_prime_modulus():
    assert difference_stratum_counts(M3) == ([], 0)
    assert difference_stratum_census(M3) == [72]


@pytest.mark.parametrize("q", [9, 27, 25])
def test_difference_census_matches_formula(q):
    m = Modulus.from_q(q)
    census = difference_stratum_census(m)
    r_list, _ = difference_stratum_counts(m)
    assert census[1:] == r_list
    assert census[0] == m.q**2 * stratum_size(m, 0)
    assert sum(census) == m.q**2 * (m.q**2 - 1)


def test_difference_census_small_bruteforce():
    m = M9
    grid = list(itertools.product(range(9), repeat=2))
    counts = [0] * m.l
    for x in grid:
        for y in grid:
            d = vsub(m, x, y)
            if d != (0, 0):
                counts[stratum_of(m, d)] += 1
    assert counts == difference_stratum_census(m)


def _census_int64_oracle(m):
    # chunked int64 enumeration over coordinate, modulus and gather arrays
    l, q = m.l, m.q
    vals = np.array([m.valuation(x) for x in range(q)], dtype=np.int64)
    coords = np.array(list(itertools.product(range(q), repeat=2)), dtype=np.int64)
    counts = np.zeros(l + 1, dtype=np.int64)
    chunk = max(1, 5_000_000 // len(coords))
    for s in range(0, len(coords), chunk):
        blk = coords[s : s + chunk]
        d0 = (blk[:, None, 0] - coords[None, :, 0]) % q
        d1 = (blk[:, None, 1] - coords[None, :, 1]) % q
        strat = np.minimum(vals[d0], vals[d1])
        counts += np.bincount(strat.ravel(), minlength=l + 1)
    return [int(c) for c in counts[:l]]


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49])
def test_difference_census_matches_int64_enumeration(q):
    m = Modulus.from_q(q)
    assert difference_stratum_census(m) == _census_int64_oracle(m)


def test_sumset_examples():
    m = M9
    line = spanned_line(m, (1, 2))
    origin = PointSet(m, 2, ((0, 0),))
    assert sumset(origin, line) == set(line.points())
    as_set = PointSet(m, 2, tuple(line.points()))
    assert sumset(as_set, line) == set(line.points())  # closed under itself


def test_sumset_lower_bound_for_a_seeded_set():
    m = M9
    E = random_subset(m, 2, 47, seed=42)
    best = max(len(sumset(E, line)) for line in lines_in_stratum(m, 0))
    assert best == 81  # pinned for this seed; some line already covers the plane
    assert 4 * m.p * (best + 1) > m.q**2 * (1 + m.p)


def test_restricted_line_count_examples():
    E = PointSet.product(M3, (1, 2), 2)
    assert restricted_line_count(E, (1, 1), 0) == 2
    full_base = PointSet.product(M9, range(9), 2)
    assert restricted_line_count(full_base, (1, 0), 0) == 6
    assert restricted_line_count(full_base, (1, 0), 1) == 2
    with pytest.raises(ValueError):
        restricted_line_count(PointSet(M3, 2, ((1, 1),)), (1, 1), 0)
    with pytest.raises(ValueError):
        restricted_line_count(E, (1, 1), 5)


def test_restricted_line_count_never_beats_either_cap():
    m = M9
    for seed in range(4):
        base = [pt[0] for pt in random_subset(m, 1, 4, seed=seed)]
        E = PointSet.product(m, base, 2)
        for x in E:
            if x == (0, 0):
                continue
            for i in range(m.l):
                count = restricted_line_count(E, x, i)
                scalars = m.p ** (m.l - i) - m.p ** (m.l - i - 1)
                assert count <= min(scalars, len(E))


def _restricted_line_loop(E, x, i):
    """How many points of E are s x for some unit s below p**(l - i), point by point."""
    m = E.m
    scalars = [s for s in range(m.p ** (m.l - i)) if s % m.p]
    return sum(any(y == tuple(s * c % m.q for c in x) for s in scalars) for y in E)


@pytest.mark.parametrize("m", [M9, M27, M25], ids=str)
def test_restricted_line_count_on_the_full_grid_matches_its_listed_twin(m):
    grid = PointSet.full_grid(m, 2)
    twin = PointSet(m, 2, itertools.product(range(m.q), repeat=2))
    p = m.p
    for x in [(1, 0), (1, 1), (p, 2 * p), (0, m.q // p), (0, 0), (m.q - 1, 3), (m.q + 2, -1)]:
        for i in range(m.l):
            assert restricted_line_count(grid, x, i) == _restricted_line_loop(twin, x, i)


def test_counting_chain_cauchy_schwarz():
    # |E|**6 <= |T_2| * sum mu**2 and |E|**4 <= |Pi| * sum nu**2
    m = M9
    E = random_subset(m, 2, 9, seed=8)
    mu = triangle_classes(m, E)
    assert len(E) ** 6 <= len(mu) * sum(c * c for c in mu.values())
    nu = dot_product_counts(E)
    support = len(dot_product_set(E))
    assert len(E) ** 4 <= support * sum(c * c for c in nu.values())


def test_mu_square_sum_below_nu_cube_sum():
    # the second-moment count is dominated by the twisted third moments
    m = M3
    pts = list(itertools.product(range(3), repeat=2))[:5]
    E = PointSet(m, 2, tuple(pts))
    mu2 = sum(c * c for c in triangle_classes(m, E).values())
    total = sum(
        sum(c**3 for c in rotation_correlation(E, theta).values())
        for theta in so2_elements(m)
    )
    assert mu2 <= total


# -- the vectorized counters against the pair and triple loops they replaced --


def _dot_set_loop(E):
    return {dot(E.m, x, y) for x in E for y in E}


def _dot_counts_loop(E):
    counts = {t: 0 for t in range(E.m.q)}
    for x in E:
        for y in E:
            counts[dot(E.m, x, y)] += 1
    return counts


_SMALL = [M3, Modulus(5, 1), Modulus(7, 1), M9, M25, M27]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SMALL),
    st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26)), max_size=14),
)
def test_triangle_area_set_matches_the_triple_loop(m, pts):
    E = PointSet(m, 2, tuple(pts))
    assert triangle_area_set(E) == _areas_brute(E)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SMALL),
    st.sampled_from((1, 2, 3)),
    st.lists(st.integers(0, 26), max_size=6),
    st.lists(st.lists(st.integers(0, 26), min_size=3, max_size=3), max_size=12),
)
def test_dot_products_match_the_pair_loop(m, d, base, rows):
    for E in (PointSet.product(m, base, d), PointSet(m, d, tuple(r[:d] for r in rows))):
        assert dot_product_set(E) == _dot_set_loop(E)
        assert dot_product_counts(E) == _dot_counts_loop(E)


@pytest.mark.parametrize("d, base", [(3, (-1, -2, -3)), (5, (-1, -2))])
def test_dot_products_near_the_largest_modulus(d, base):
    # d * (q - 1)**2 exceeds 2**63 here, so the pair sums must be reduced
    # as they are accumulated
    m = Modulus(2**31 - 1, 1)
    E = PointSet.product(m, base, d)
    assert d * (m.q - 1) ** 2 > 2**63
    assert dot_product_set(E) == _dot_set_loop(E)


def test_triangle_areas_near_the_largest_modulus():
    m = Modulus(2**31 - 1, 1)
    E = PointSet(m, 2, ((-1, -2), (-3, 5), (7, -11), (0, 0), (2**30, -(2**30))))
    assert triangle_area_set(E) == _areas_brute(E)


@pytest.mark.parametrize("q, dtype", [(46337, np.int32), (46349, np.int64)])
def test_area_blocks_are_int32_while_q_squared_plus_q_fits(q, dtype):
    # every partial sum of a determinant lies within q**2 + q of 0, which
    # int32 holds up to q = 46340; coordinates near q stress the extremes
    m = Modulus(q, 1)
    E = PointSet(m, 2, ((-1, -2), (-3, 5), (7, -11), (0, 0), (q // 2, -(q // 2)), (-1, 0)))
    assert {b.dtype for b in configsets._area_blocks(E)} == {np.dtype(dtype)}
    assert triangle_area_set(E) == _areas_brute(E)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counters_hold_four_blocks_at_most():
    # sets whose values never saturate, so every block is scanned
    lattice = PointSet(M27, 2, tuple((3 * s, t) for s in range(9) for t in range(27)))
    assert triangle_area_set(lattice) == set(range(3, 27, 3))
    assert _peak_bytes(triangle_area_set, lattice) <= 4 * _census._SCAN_BYTES
    m = Modulus(3, 5)
    grid = PointSet(m, 2, tuple((3 * s, 3 * t) for s in range(81) for t in range(81)))
    assert dot_product_set(grid) == set(range(0, m.q, 9))
    assert _peak_bytes(dot_product_set, grid) <= 4 * _census._SCAN_BYTES


def _counting(monkeypatch, name):
    """Wrap a block generator of configsets and count the blocks it yields."""
    inner = getattr(configsets, name)
    used = []

    def wrapped(E):
        for block in inner(E):
            used.append(block.size)
            yield block

    monkeypatch.setattr(configsets, name, wrapped)
    return used


def test_counters_over_tiny_chunks_stop_once_saturated(monkeypatch):
    # one row per block, so saturation is seen long before the last block
    monkeypatch.setattr(_census, "_SCAN_BYTES", 8)
    areas = _counting(monkeypatch, "_area_blocks")
    dots = _counting(monkeypatch, "_dot_blocks")

    # the listed grid: the full grid itself is a product, whose dots take the sumset
    full = PointSet(Modulus(5, 1), 2, itertools.product(range(5), repeat=2))
    assert triangle_area_set(full) == _areas_brute(full) == set(range(1, 5))
    assert 0 < len(areas) < len(full) ** 2
    assert dot_product_set(full) == set(range(5))
    assert 0 < len(dots) < len(full)
    assert dot_product_counts(full) == _dot_counts_loop(full)

    areas.clear(), dots.clear()
    sparse = PointSet(M9, 2, tuple((3 * s, t) for s in range(3) for t in range(3)))
    assert triangle_area_set(sparse) == _areas_brute(sparse) == {3, 6}
    assert len(areas) == len(sparse) ** 2 and sum(areas) == len(sparse) ** 3
    assert dot_product_set(sparse) == _dot_set_loop(sparse)
    assert len(dots) == len(sparse) and sum(dots) == len(sparse) ** 2

    # sets near saturation, where the last residues arrive in late blocks
    for seed in range(20):
        E = random_subset(M9, 2, 5 + seed % 4, seed=seed)
        assert triangle_area_set(E) == _areas_brute(E)
        assert dot_product_set(E) == _dot_set_loop(E)


_LARGEST = Modulus(2**31 - 1, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_SMALL + [Modulus(11, 2), _LARGEST]),
    st.sampled_from((1, 2, 3)),
    st.lists(st.lists(st.integers(-(2**31), 2**31), min_size=3, max_size=3), max_size=10),
    st.sampled_from([8, 64, 200, 1000]),
)
def test_scans_agree_over_doubling_and_tiny_blocks(m, d, rows, chunk):
    # the default blocks double from about q values up to _CHUNK_BYTES; tiny
    # caps cut every scan into blocks of one or a few rows
    E = PointSet(m, d, tuple(r[:d] for r in rows))
    dots = dot_product_set(E)
    areas = triangle_area_set(E) if d == 2 else None
    assert dot_product_count(E) == len(dots)
    if d == 2:
        assert triangle_area_count(E) == len(areas)
        if m.q < 100:
            assert areas == _areas_brute(E)
    if m.q < 100:
        assert dots == _dot_set_loop(E)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_census, "_SCAN_BYTES", chunk)
        assert dot_product_set(E) == dots
        if d == 2:
            assert triangle_area_set(E) == areas


def test_row_blocks_start_near_q_values_and_double_to_the_cap():
    def blocks(rows, width, q, budget=8 * 20 * 1000):  # 20 rows of 1000
        return list(_census._blocks(rows, width, budget, first=q))

    # below q = 2**12 the first block holds 2**12 values, 4 rows of 1000
    rows = [(s.start, s.stop) for s in blocks(60, 1000, 250)]
    assert rows == [(0, 4), (4, 12), (12, 28), (28, 48), (48, 60)]
    # above it, about q values: 10 rows of 1000 at q = 10**4
    rows = [(s.start, s.stop) for s in blocks(60, 1000, 10**4)]
    assert rows == [(0, 10), (10, 30), (30, 50), (50, 60)]
    # rows wider than the first block start at one row; a cap below one row
    # still gives one
    assert [s.stop - s.start for s in blocks(5, 5000, 7)] == [1, 2, 2]
    assert [s.stop for s in blocks(3, 100, 10**6, budget=8)] == [1, 2, 3]


# every area of the strip Z_25 x 5 Z_25 is a multiple of 5, and every dot
# product of p Z_q^2 a multiple of p**2, so neither scan ever saturates
_STRIP25 = PointSet(M25, 2, tuple((x, 5 * y) for x in range(25) for y in range(5)))
_DEEP25 = PointSet(M25, 2, tuple((5 * x, 5 * y) for x in range(5) for y in range(5)))
# 625 points, whose 625**2 dot products take several blocks
_DEEP125 = PointSet(Modulus(5, 3), 2, tuple((5 * x, 5 * y) for x in range(25) for y in range(25)))
_A5 = PointSet.product(Modulus(2**31 - 1, 1), (1, 2, 3), 5)


def test_pair_scans_charge_each_block_to_the_op_cap(monkeypatch):
    # the strip's scan runs all 125**3 values unless the cap stops it
    strip = _STRIP25
    assert triangle_area_count(strip) == 4
    blocks = list(_census._blocks(125 * 125, 125, _census._SCAN_BYTES, first=25))
    spent = blocks[-1].start * 125
    monkeypatch.setattr(_census, "_OP_CAP", 125**3 - 1)
    with pytest.raises(ValueError) as info:
        triangle_area_count(strip)
    last = blocks[-1].stop - blocks[-1].start
    assert str(info.value) == (
        f"the triangle area scan: {spent} operations spent, and {last * 125} more would pass "
        f"the {125**3 - 1}-operation budget"
    )
    # the deep set's 25 * 25 pairs, never saturated
    deep = _DEEP25
    monkeypatch.setattr(_census, "_OP_CAP", 25 * 25)
    assert dot_product_count(deep) == 1
    monkeypatch.setattr(_census, "_OP_CAP", 25 * 25 - 1)
    with pytest.raises(ValueError, match="the dot product scan: .* more would pass the "
                                         f"{25 * 25 - 1}-operation budget"):
        dot_product_count(deep)
    with pytest.raises(ValueError, match="the dot product scan: "):
        dot_product_counts(deep)


def test_saturating_scans_stay_far_inside_the_op_cap(monkeypatch):
    # 280 points saturate the Z_25 areas and 16 points the Z_9 dot products
    # after their first blocks, whatever the full scans would cost
    monkeypatch.setattr(_census, "_OP_CAP", 10**6)
    assert triangle_area_count(random_subset(M25, 2, 280, 1)) == 24
    assert dot_product_count(random_subset(M9, 2, 40, 1)) == 9


def _t2_of_random(n):
    m = Modulus(13, 1)
    return lambda: orthogroup.triangle_class_count(m, random_subset(m, 2, n, seed=0).as_array())


# (what the refusal names, the cap, the run); each cap stops its run partway,
# or for the census at its one up-front charge of n**3
_REFUSALS = {
    "area scan": ("the triangle area scan", 10**5, lambda: triangle_area_count(_STRIP25)),
    "dot scan": ("the dot product scan", 625**2 - 1, lambda: dot_product_count(_DEEP125)),
    # |A|**2 = 9, then |S_1| |A.A| = 6 * 6, then 14 * 6 passes the cap
    "sumset step": ("dot products of A^5 with |A| = 3", 100, lambda: dot_product_set(_A5)),
    "convolution step": ("dot products of A^5 with |A| = 3", 100,
                         lambda: dot_product_counts(_A5)),
    "t2 census": ("t2 census over n = 50 points", 50**3 - 1, _t2_of_random(50)),
    # at Z_13 the cover is charged the orbit scan |SO_2| q**2 = 12 * 169 and
    # the two real FFTs 2 q**2 q.bit_length(), then the 23 digits of 30 bits
    # of its 4 q**2-bit tiling per hit mask or window; 102 random points need
    # windows
    "t2 cover": ("t2 orbit cover over n = 102 points", 12 * 169 + 2 * 169 * 4 + 3 * 23 + 5,
                 _t2_of_random(102)),
}


@pytest.mark.parametrize("path", list(_REFUSALS))
def test_each_refusal_names_spent_next_and_budget(monkeypatch, path):
    what, cap, run = _REFUSALS[path]
    monkeypatch.setattr(_census, "_OP_CAP", cap)
    with pytest.raises(ValueError) as info:
        run()
    spent, step, budget = map(int, re.fullmatch(
        f"{re.escape(what)}: (\\d+) operations spent, and (\\d+) more would pass the "
        "(\\d+)-operation budget", str(info.value)).groups())
    assert budget == cap and spent <= budget < spent + step
    assert (spent == 0) == (path == "t2 census")


def test_area_scan_at_the_z25_threshold_saturates_within_a_few_blocks(monkeypatch):
    # 280 points reach the v2 threshold at Z_25; all 24 nonzero areas show up
    # among the first few hundred determinants, inside the first block of
    # 2**12 // 280 = 14 rows
    areas = _counting(monkeypatch, "_area_blocks")
    dots = _counting(monkeypatch, "_dot_blocks")
    for seed in range(5):
        areas.clear(), dots.clear()
        E = random_subset(M25, 2, 280, seed=seed)
        assert triangle_area_count(E) == 24
        assert areas == [14 * 280]
        assert dot_product_count(E) == 25
        assert dots == [14 * 280]


# -- rotation correlation and moment bound against the loops they replaced --


def _rotation_correlation_loop(E, theta):
    q = E.m.q
    counts = {t: 0 for t in itertools.product(range(q), repeat=2)}
    rotated = [theta.apply(v) for v in E]
    for u in E:
        for rv in rotated:
            counts[((u[0] - rv[0]) % q, (u[1] - rv[1]) % q)] += 1
    return counts


def _moment_bound_fractions(values, n):
    vals = [Fraction(v.item() if isinstance(v, np.generic) else v) for v in values]
    mean = sum(vals) / len(vals)
    spread = sum((v - mean) ** 2 for v in vals)
    lhs = sum(v**n for v in vals)
    rhs = len(vals) * mean**n + Fraction(n * (n - 1), 2) * max(vals) ** (n - 2) * spread
    return lhs, rhs


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([M9, M25, M27]),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=30),
)
def test_rotation_correlation_matches_the_pair_loop(m, pts):
    E = PointSet(m, 2, tuple(pts))
    for theta in so2_elements(m):
        nu = rotation_correlation(E, theta)
        want = _rotation_correlation_loop(E, theta)
        assert nu == want and list(nu) == list(want)
        assert all(type(c) is int for c in nu.values())


def test_rotation_correlation_is_exact_on_the_full_z243_grid():
    # every t is hit by all q**2 points u, the largest counts the FFT's rounding must keep
    m = Modulus(3, 5)
    grid = PointSet.full_grid(m, 2)
    for theta in so2_elements(m)[::37]:
        nu = rotation_correlation(grid, theta)
        assert len(nu) == m.q**2 and set(nu.values()) == {m.q**2}


def test_rotation_correlation_holds_a_few_blocks():
    m = Modulus(3, 4)
    E = random_subset(m, 2, 4000, seed=2)
    theta = so2_elements(m)[7]
    # all n**2 codes at once would be 128 MB; the counts and the dict are O(q**2)
    assert 8 * len(E) ** 2 > 30 * _census._SCAN_BYTES
    assert _peak_bytes(rotation_correlation, E, theta) <= (
        4 * _census._SCAN_BYTES + 64 * m.q**2
    )


_VALUES = st.lists(st.integers(0, 50), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_VALUES, st.sampled_from((2, 3, 4, 5)))
def test_moment_bound_int_path_matches_fractions(values, n):
    want = _moment_bound_fractions(values, n)
    tables = (
        values,
        np.array(values, dtype=np.int64),
        dict(enumerate(np.array(values, dtype=np.int64))),
        [Fraction(v) for v in values],  # the all-Fraction path
    )
    for table in tables:
        got = moment_bound(table, n)
        assert got == want
        assert all(type(x) is Fraction for x in got)


@settings(max_examples=60, deadline=None)
@given(
    _VALUES,
    st.lists(
        st.one_of(
            st.fractions(min_value=0, max_value=50, max_denominator=12),
            st.floats(min_value=0, max_value=50, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from((2, 3, 4)),
)
def test_moment_bound_mixed_values_match_fractions(values, others, n):
    table = [*values, *others]
    assert moment_bound(table, n) == _moment_bound_fractions(table, n)
    mixed = [np.int64(v) for v in values] + others
    assert moment_bound(mixed, n) == _moment_bound_fractions(mixed, n)


# -- product sets: lazy listing and the sumset path -------------------------


# (modulus, largest |A| drawn); near 2**31 the sums rarely coincide, so A stays small
_PRODUCT_CASES = [(m, 12) for m in _SMALL + [Modulus(7, 2), Modulus(3, 4)]]
_PRODUCT_CASES.append((Modulus(2**31 - 1, 1), 5))


def _listed_twin(E):
    """The same product with its points handed over, so nothing is lazy and
    the dot counters scan it in row blocks."""
    return PointSet(E.m, E.d, E.points)


def _dot_counts_pair_loop(E):
    counts = {}
    for x in E:
        for y in E:
            t = dot(E.m, x, y)
            counts[t] = counts.get(t, 0) + 1
    return counts


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_PRODUCT_CASES),
    st.integers(1, 40),
    st.lists(st.integers(-(2**31), 2**31), max_size=12),
    st.sampled_from(["any", "one", "deep", "deep and 1"]),
)
def test_sumset_path_matches_the_scan_and_the_pair_loop(case, d, raw, shape):
    m, most = case
    # products of multiples of p**ceil(l/2) vanish, so A.A takes few values
    # and the sumset stops growing long before d
    deep = [m.p ** -(-m.l // 2) * c for c in raw]
    base = {"any": raw, "one": raw[:1], "deep": deep, "deep and 1": [1, *deep]}[shape]
    E = PointSet.product(m, base[:most], d)
    # near 2**31 the sums of a general A rarely coincide, so S_d is not small
    assume(shape != "any" or E.size <= 10**6 or m.q < 2**20)
    got_set = dot_product_set(E)
    size = len(E.base)
    if size >= 2 and size ** (2 * d) >= 2**63:
        with pytest.raises(ValueError, match="2\\^63"):
            dot_product_counts(E)
    else:
        got = configsets._dot_convolution(E)
        assert got_set == set(got[0].tolist())
        assert got[1].min(initial=1) > 0 and int(got[1].sum()) == E.size**2
    if E.size <= 3000 and m.q < 2**20:
        twin = _listed_twin(E)
        assert got_set == dot_product_set(twin)
        assert dot_product_counts(E) == dot_product_counts(twin)
    if E.size <= 300:
        want = _dot_counts_pair_loop(E)
        assert dict(zip(got[0].tolist(), got[1].tolist())) == want and got_set == set(want)


@pytest.mark.parametrize("base, want", [((), set()), ((2,), {4}), ((1, 2), set(range(9)))])
def test_sumset_path_at_a_huge_dimension_stops_once_it_stops_growing(base, want):
    # S_d is found in at most q steps, whatever d is: each step before the
    # sumset stops growing adds a residue, and each one after it is a shift
    E = PointSet.product(M9, base, 10**12)
    start = time.perf_counter()
    assert dot_product_set(E) == want
    assert time.perf_counter() - start < 0.5
    if len(base) >= 2:
        with pytest.raises(ValueError, match="2\\^63"):
            dot_product_counts(E)
    else:  # (a, ..., a).(a, ..., a) = d a**2, and 10**12 = 1 mod 9
        assert _nonzero_counts(dot_product_counts(E)) == {t: 1 for t in want}


def test_sumset_counts_read_like_a_dense_table():
    m = Modulus(2**31 - 1, 1)
    counts = dot_product_counts(PointSet.product(m, (1, -1), 2))
    # x.y over {1, -1}^2 takes 2, 0 and -2; nothing of length q is built
    assert len(counts) == m.q
    assert (counts[2], counts[0], counts[m.q - 2], counts[1]) == (4, 8, 4, 0)
    assert 0 in counts and m.q not in counts and "0" not in counts
    with pytest.raises(KeyError):
        counts[m.q]


@pytest.mark.parametrize(
    "E",
    [
        PointSet(Modulus(5, 1), 2, ((0, 0), (1, 2), (4, 4))),
        PointSet(Modulus(7, 1), 2, ((1, 3), (2, 6), (3, 2), (6, 6))),
        PointSet.product(Modulus(3, 2), (1, 4), 2),
        PointSet.product(Modulus(5, 1), (0, 2), 2),
    ],
    ids=["z5-gaps", "z7-no-zero", "z9-product", "z5-product"],
)
def test_dot_count_views_walk_z_q_in_order(E):
    counts, q = dot_product_counts(E), E.m.q
    want = [_dot_counts_pair_loop(E).get(t, 0) for t in range(q)]
    assert list(counts.items()) == list(enumerate(want))
    assert list(counts.values()) == want
    assert list(counts.keys()) == list(range(q))
    assert counts == dict(enumerate(want)) and dict(counts.items()) == dict(enumerate(want))


def test_dot_count_views_do_not_search_per_key(monkeypatch):
    q = 1000003
    E = PointSet(Modulus(q, 1), 2, ((1, 2), (3, -4), (500000, 7)))
    counts = dot_product_counts(E)
    searches = []
    search = np.searchsorted

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    assert sum(counts.values()) == 9
    nonzero = {t: c for t, c in counts.items() if c}
    assert nonzero == _dot_counts_pair_loop(E)
    assert searches == []


def _nonzero_counts(counts):
    """The t with nu(t) > 0 of a sparse dot-count table, without visiting Z_q."""
    return dict(zip(counts._codes.tolist(), counts._counts.tolist()))


@pytest.mark.parametrize(
    "q,pts",
    [
        (1000003, ((1, 2), (3, -4), (500000, 7))),
        (2**31 - 1, ((1, 2), (-1, 2**30), (2**31 - 2, 12345), (7, 7))),
    ],
)
def test_general_set_counts_are_sparse(q, pts):
    E = PointSet(Modulus(q, 1), 2, pts)
    assert E.base is None
    tracemalloc.start()
    try:
        counts = dot_product_counts(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q  # a dense table would take 8 q bytes
    want = _dot_counts_pair_loop(E)
    assert _nonzero_counts(counts) == want
    assert len(counts) == q and all(counts[t] == c for t, c in want.items())
    assert counts[next(t for t in range(q) if t not in want)] == 0


# -- one sparse count table for the rotation correlation and the dot counts --


def test_rotation_correlation_refuses_foreign_maps_and_grids_past_the_cap():
    E = random_subset(M27, 2, 20, seed=3)
    # 0**2 + 4**2 = 16 is 1 mod 5 but not mod 27
    foreign = next(t for t in so2_elements(Modulus(5, 1)) if (t.a, t.b) == (0, 4))
    for theta in (foreign, Rotation(0, 4, M27), so2_elements(M9)[1]):
        with pytest.raises(ValueError, match="is not a rotation of Z_27"):
            rotation_correlation(E, theta)
    assert sum(rotation_correlation(E, so2_elements(M27)[1]).values()) == 400
    # Z_1009^2 has 1018081 points; nothing of that size is allocated before the refusal
    m = Modulus(1009, 1)
    cap = f"grid Z_1009\\^2 exceeds the {configsets.FULL_GRID_CAP}-point cap"
    E = PointSet(m, 2, [(1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=cap):
            rotation_correlation(E, Rotation(1, 0, m))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_rotation_correlation_at_z961_keeps_the_transform_not_a_dict():
    m = Modulus(31, 2)
    E = random_subset(m, 2, 10, 1, 0)
    theta = Rotation(*orthogroup.so2_table(m)[5].tolist(), m)
    # the FFT alone peaks at about 42 MiB; a dict of all q**2 counts took 125 MiB
    assert _peak_bytes(rotation_correlation, E, theta) <= 64 * 2**20
    nu = rotation_correlation(E, theta)
    assert len(nu) == m.q**2 and int(nu._counts.sum()) == 100
    assert _peak_bytes(moment_bound, nu, 4) < 2**20
    assert moment_bound(nu, 2)[0] == sum(c * c for c in nu._counts.tolist())


def test_dot_tables_compare_and_bound_without_visiting_z_q():
    m = Modulus(2**31 - 1, 1)
    pts = ((1, 2), (-1, 2**30), (2**31 - 2, 12345), (7, 7))
    E, F = PointSet(m, 2, pts), PointSet(m, 2, pts[:3])
    one, two = dot_product_counts(E), dot_product_counts(E)
    assert _peak_bytes(operator.eq, one, two) < 2**20
    assert one == two and one != dot_product_counts(F)
    assert _peak_bytes(moment_bound, one, 3) < 2**20
    want = _dot_counts_pair_loop(E)
    lhs, rhs = moment_bound(one, 3)
    assert lhs == sum(c**3 for c in want.values())
    mean = Fraction(16, m.q)
    assert rhs == m.q * mean**3 + 3 * max(want.values()) * (
        sum(c * c for c in want.values()) - mean * 16)


def test_rotation_tables_read_like_a_dict_of_pairs():
    E = random_subset(M9, 2, 6, seed=1)
    theta = so2_elements(M9)[2]
    nu, want = rotation_correlation(E, theta), _rotation_correlation_loop(E, theta)
    assert nu == want and want == nu and dict(nu) == want
    assert list(nu.keys()) == list(want) and list(nu.items()) == list(want.items())
    assert nu != {**want, (0, 0): want[(0, 0)] + 1}
    for bad in ((9, 0), (0,), (0, 0, 0), [0, 0], (0.0, 0), 0, "ab", None):
        assert bad not in nu
        with pytest.raises(KeyError):
            nu[bad]
    assert all(nu[t] == c for t, c in want.items())
    assert nu != rotation_correlation(random_subset(M9, 2, 6, seed=2), theta)
    assert dot_product_counts(PointSet(M9, 2, [(0, 0)])) != rotation_correlation(E, theta)


def _count_tables(m, E, index):
    group = so2_elements(m)
    return {1: dot_product_counts(E), 2: rotation_correlation(E, group[index % len(group)])}


@pytest.mark.parametrize("m", [M9, M25, M27], ids=str)
def test_from_counts_of_a_count_table_reads_its_nonzero_entries(m):
    for seed in range(3):
        E = random_subset(m, 2, 4 + 5 * seed, seed=seed)
        for d, table in _count_tables(m, E, seed).items():
            nonzero = {((t,) if d == 1 else t): c for t, c in table.items() if c}
            got = GridFunction.from_counts(m, d, table)
            assert np.array_equal(got.values, GridFunction.from_counts(m, d, nonzero).values)
            assert got.values.sum() == len(E) ** 2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([M9, M25, M27]),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=30),
    st.integers(0, 100),
    st.sampled_from((2, 3, 4, 5)),
)
def test_moment_bound_of_a_count_table_matches_fractions(m, pts, index, n):
    for table in _count_tables(m, PointSet(m, 2, pts), index).values():
        assert moment_bound(table, n) == _moment_bound_fractions(list(table.values()), n)


def test_sumset_path_refuses_past_its_budget(monkeypatch):
    q = 3**9
    E = PointSet.product(Modulus.from_q(q), range(q), 2)
    # the convolution is charged all |A|**2 products before it starts
    refusal = (f"dot products of A\\^2 with \\|A\\| = {q}: 0 operations spent, and {q * q} "
               f"more would pass the {_census._OP_CAP}-operation budget")
    with pytest.raises(ValueError, match=refusal):
        dot_product_counts(E)
    # A = Z_q, so A.A is all of Z_q within the first block of products
    assert dot_product_set(E) == set(range(q))
    # |A|**(2d) = 9**30 overflows int64, so only the set is exact
    wide = PointSet.product(M9, range(9), 15)
    assert dot_product_set(wide) == set(range(9))
    with pytest.raises(ValueError, match="2\\^63"):
        dot_product_counts(wide)
    # units multiply to units, so A.A misses 0 and never holds all of Z_q: its
    # |A|**2 products are charged before the first block runs
    monkeypatch.setattr(_census, "_OP_CAP", 10**6)
    units = [a for a in range(3**7) if a % 3]
    refusal = (f"dot products of A\\^2 with \\|A\\| = {len(units)}: 0 operations "
               "spent, and 2125764 more would pass the 1000000-operation budget")
    with pytest.raises(ValueError, match=refusal):
        dot_product_set(PointSet.product(Modulus(3, 7), units, 2))
    # with 0 in A, A.A holds 0 but still only units besides, so it never saturates;
    # the up-front test cannot tell, and the blocks are charged one by one
    refusal = (f"dot products of A\\^2 with \\|A\\| = {len(units) + 1}: [1-9][0-9]* operations "
               "spent, and [0-9]+ more would pass the 1000000-operation budget")
    with pytest.raises(ValueError, match=refusal):
        dot_product_set(PointSet.product(Modulus(3, 7), [0, *units], 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SMALL),
    st.integers(1, 3),
    st.lists(st.integers(-30, 30), max_size=6),
    st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3), max_size=8),
)
def test_lazy_product_matches_its_listed_twin(m, d, base, probes):
    E = PointSet.product(m, base, d)
    factor = sorted({c % m.q for c in base})
    twin = PointSet(m, d, itertools.product(factor, repeat=d))
    assert len(E) == len(twin) == len(set(c % m.q for c in base)) ** d
    for v in [*probes, *(p[:d] for p in probes), *twin.points[:5]]:
        assert (v in E) == (v in twin)
    assert E == twin and twin == E and hash(E) == hash(twin)
    if len(twin):
        assert E != PointSet(m, d, twin.points[1:])
    assert E == PointSet(m, d, twin.points)  # a product equals the listed set of its points
    assert twin.base is None
    if d == 2:
        for x in [*twin.points[:4], (1, 1)]:
            for i in range(m.l):
                assert restricted_line_count(E, x, i) == _restricted_line_loop(twin, x, i)
    assert E._points is None  # nothing above needed E listed
    assert np.array_equal(E.as_array(), twin.as_array())
    assert list(E) == list(twin)  # listing follows the same lexicographic order
    assert E.points == twin.points


@pytest.mark.parametrize("m, d", [(M3, 2), (M9, 2), (M9, 3), (Modulus(5, 1), 4)], ids=str)
def test_lazy_full_grid_matches_its_listed_twin(m, d):
    grid = PointSet.full_grid(m, d)
    twin = PointSet(m, d, itertools.product(range(m.q), repeat=d))
    assert len(grid) == len(twin) == m.q**d
    assert grid.base == tuple(range(m.q)) and twin.base is None
    assert grid == twin and hash(grid) == hash(twin)
    # (q, 0, ...) is read as (0, 0, ...), as the constructor reads it
    assert (0,) * d in grid and (m.q,) + (0,) * (d - 1) in grid
    assert list(grid) == list(twin)
    assert np.array_equal(grid.as_array(), twin.as_array())


@pytest.mark.parametrize(
    "make",
    [
        lambda: PointSet(M9, 2, ((1, 2), (0, 5), (1, 2), (8, 0))),
        lambda: random_subset(M9, 2, 12, seed=4),
        lambda: PointSet.product(M9, (4, 0, 7), 3),
    ],
    ids=["listed", "sampled", "product"],
)
def test_as_array_is_one_shared_read_only_array(make):
    E = make()
    rows = E.as_array()
    assert rows is E.as_array() and rows.dtype == np.int64 and rows.shape == (len(E), E.d)
    assert not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1
    assert E.points == tuple(map(tuple, rows.tolist())) == tuple(sorted(E.points))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_SMALL),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-3, 30), min_size=3, max_size=3), max_size=30),
    st.lists(st.lists(st.integers(-3, 30), min_size=1, max_size=4), max_size=10),
)
def test_listed_membership_matches_a_tuple_set(m, d, pts, probes):
    E = PointSet(m, d, [p[:d] for p in pts])
    members = {tuple(c % m.q for c in p[:d]) for p in pts}
    for v in [*probes, *(p[:d] for p in pts), *members]:
        assert (v in E) == (len(v) == d and tuple(c % m.q for c in v) in members)


def test_first_membership_query_builds_no_index():
    E = random_subset(Modulus(997, 1), 2, 10**5, 1)
    probe = tuple(E.as_array()[54321].tolist())
    tracemalloc.start()
    try:
        assert probe in E
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * E.as_array().nbytes


def test_a_huge_product_answers_from_its_base_and_dimension():
    # 3**(10**8) has about 4.8 * 10**7 digits, minutes to form and print
    E, d = PointSet.product(M3, (0, 1, 2), 10**8), 10**8
    checks = [
        lambda: repr(E) == f"PointSet(m={M3!r}, d={d}, size=3**{d}, base=(0, 1, 2))",
        lambda: hash(E) == hash(PointSet.product(M3, (2, 0, 1), d)),
        lambda: E == PointSet.product(M3, (2, 0, 1), d) and E != PointSet.product(M3, (0, 1), d),
        lambda: E != PointSet.product(M3, (0, 1, 2), d - 1),
    ]
    for check in checks:
        t0 = time.perf_counter()
        assert check()
        assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"{configsets.FULL_GRID_CAP}-point cap"):
        E.as_array()
    assert time.perf_counter() - t0 < 1
    # a listed set is compared by its row count, with no |A|**d formed
    E40 = PointSet.product(M3, (0, 1, 2), 40)
    assert E40 != PointSet(M3, 40, [(0,) * 40, (1,) * 40]) != E40


def test_product_past_the_point_cap_lists_nothing_until_asked():
    E = PointSet.product(M27, range(27), 6)
    assert len(E) == 27**6 and (1, 2, 3, 4, 5, 6) in E
    assert dot_product_set(E) == set(range(27))
    with pytest.raises(ValueError, match="cap"):
        E.points
    with pytest.raises(ValueError, match="cap"):
        E.as_array()
    with pytest.raises(AttributeError):
        E.d = 2
