"""Configuration counters checked against small brute-force oracles."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zqgeom import configsets
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
    assert len(full) == 9 and full.base is None
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
    assert repr(E) == f"PointSet(m={M3!r}, d=40, size={3**40}, base=(0, 1, 2))"
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
    assert _peak_bytes(triangle_area_set, lattice) <= 4 * configsets._CHUNK_BYTES
    m = Modulus(3, 5)
    grid = PointSet(m, 2, tuple((3 * s, 3 * t) for s in range(81) for t in range(81)))
    assert dot_product_set(grid) == set(range(0, m.q, 9))
    assert _peak_bytes(dot_product_set, grid) <= 4 * configsets._CHUNK_BYTES


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
    monkeypatch.setattr(configsets, "_CHUNK_BYTES", 8)
    areas = _counting(monkeypatch, "_area_blocks")
    dots = _counting(monkeypatch, "_dot_blocks")

    full = PointSet.full_grid(Modulus(5, 1), 2)
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
        patch.setattr(configsets, "_CHUNK_BYTES", chunk)
        assert dot_product_set(E) == dots
        if d == 2:
            assert triangle_area_set(E) == areas


def test_row_blocks_start_near_q_values_and_double_to_the_cap(monkeypatch):
    monkeypatch.setattr(configsets, "_CHUNK_BYTES", 8 * 10 * 100)  # 10 rows of 100
    rows = [(s.start, s.stop) for s in configsets._row_blocks(50, 100, 250)]
    assert rows == [(0, 2), (2, 6), (6, 14), (14, 24), (24, 34), (34, 44), (44, 50)]
    # rows wider than q start at one row; a cap below one row still gives one
    assert [s.stop - s.start for s in configsets._row_blocks(5, 100, 7)] == [1, 2, 2]
    monkeypatch.setattr(configsets, "_CHUNK_BYTES", 8)
    assert [s.stop for s in configsets._row_blocks(3, 100, 10**6)] == [1, 2, 3]


def test_area_scan_at_the_z25_threshold_saturates_within_a_few_blocks(monkeypatch):
    # 280 points reach the v2 threshold at Z_25; all 24 nonzero areas show up
    # among the first few hundred determinants, long before one full block
    areas = _counting(monkeypatch, "_area_blocks")
    dots = _counting(monkeypatch, "_dot_blocks")
    for seed in range(5):
        areas.clear(), dots.clear()
        E = random_subset(M25, 2, 280, seed=seed)
        assert triangle_area_count(E) == 24
        assert len(areas) <= 3 and sum(areas) <= 7 * 280
        assert dot_product_count(E) == 25
        assert len(dots) <= 3 and sum(dots) <= 7 * 280


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


def test_rotation_correlation_over_tiny_chunks(monkeypatch):
    blocks = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        blocks.append(x.size)
        return bincount(x, *args, **kwargs)

    E = random_subset(M27, 2, 30, seed=8)
    for chunk, rows in ((8, 1), (8 * 7 * len(E), 7)):
        monkeypatch.setattr(configsets, "_CHUNK_BYTES", chunk)
        monkeypatch.setattr(np, "bincount", counting)
        for theta in so2_elements(M27)[::5]:
            blocks.clear()
            assert rotation_correlation(E, theta) == _rotation_correlation_loop(E, theta)
            assert len(blocks) == -(-len(E) // rows) > 1
            assert sum(blocks) == len(E) ** 2


def test_rotation_correlation_holds_a_few_blocks():
    m = Modulus(3, 4)
    E = random_subset(m, 2, 4000, seed=2)
    theta = so2_elements(m)[7]
    # all n**2 codes at once would be 128 MB; the counts and the dict are O(q**2)
    assert 8 * len(E) ** 2 > 30 * configsets._CHUNK_BYTES
    assert _peak_bytes(rotation_correlation, E, theta) <= (
        4 * configsets._CHUNK_BYTES + 64 * m.q**2
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
    return PointSet(E.m, E.d, E.points, base=E.base)


def _dot_counts_pair_loop(E):
    counts = {}
    for x in E:
        for y in E:
            t = dot(E.m, x, y)
            counts[t] = counts.get(t, 0) + 1
    return counts


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_PRODUCT_CASES),
    st.integers(1, 6),
    st.lists(st.integers(-(2**31), 2**31), max_size=12),
)
def test_sumset_path_matches_the_scan_and_the_pair_loop(case, d, base):
    m, most = case
    E = PointSet.product(m, base[:most], d)
    assume(len(E) <= 10**6)
    got_set, got = dot_product_set(E), configsets._dot_convolution(E)
    assert got_set == set(got[0].tolist())
    assert got[1].min(initial=1) > 0 and int(got[1].sum()) == len(E) ** 2
    if len(E) <= 3000 and m.q < 2**20:
        twin = _listed_twin(E)
        assert got_set == dot_product_set(twin)
        assert dot_product_counts(E) == dot_product_counts(twin)
    if len(E) <= 300:
        assert dict(zip(got[0].tolist(), got[1].tolist())) == _dot_counts_pair_loop(E)


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
    return dict(zip(counts._keys.tolist(), counts._counts.tolist()))


@pytest.mark.parametrize(
    "q,pts",
    [
        (1000003, ((1, 2), (3, -4), (500000, 7))),
        (2**31 - 1, ((1, 2), (-1, 2**30), (2**31 - 2, 12345), (7, 7))),
    ],
)
def test_general_set_counts_are_sparse(q, pts):
    E = PointSet(Modulus(q, 1), 2, pts)
    assert not configsets._is_product(E)
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


def test_sumset_path_refuses_past_its_budget():
    q = 3**9
    E = PointSet.product(Modulus.from_q(q), range(q), 2)
    assert configsets.sumset_cost(q, q, 2) > configsets.SUMSET_BUDGET
    with pytest.raises(ValueError, match="cap"):
        dot_product_set(E)
    with pytest.raises(ValueError, match="cap"):
        dot_product_counts(E)
    # |A|**(2d) = 9**30 overflows int64, so only the set is exact
    wide = PointSet.product(M9, range(9), 15)
    assert dot_product_set(wide) == set(range(9))
    with pytest.raises(ValueError, match="2\\^63"):
        dot_product_counts(wide)


def test_sumset_cost_counts_each_step():
    # |A| = 3: 9 products take at most 6 values; |S_k| is at most the number
    # of k-element multisets of them (6, 21, 56, ...) and at most q
    assert configsets.sumset_cost(10**6, 3, 3) == 9 + 6 * 6 + 21 * 6
    assert configsets.sumset_cost(27, 3, 4) == 9 + 6 * 6 + 21 * 6 + 27 * 6
    assert configsets.sumset_cost(27, 0, 5) == 0
    assert configsets.sumset_cost(27, 1, 10**12) == 1 + (10**12 - 1)
    assert configsets.sumset_cost(2**31 - 1, 2, 10**12) > configsets.SUMSET_BUDGET


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
    twin = PointSet(m, d, itertools.product(factor, repeat=d), base=base)
    assert len(E) == len(twin) == len(set(c % m.q for c in base)) ** d
    for v in [*probes, *(p[:d] for p in probes), *twin.points[:5]]:
        assert (v in E) == (v in twin)
    assert E == twin and twin == E and hash(E) == hash(twin)
    if len(twin):
        assert E != PointSet(m, d, twin.points[1:], base=E.base)
        assert E != PointSet(m, d, twin.points)  # no base recorded
    if d == 2:
        for x in [*twin.points[:4], (1, 1)]:
            for i in range(m.l):
                assert restricted_line_count(E, x, i) == restricted_line_count(twin, x, i)
    assert E._points is None  # nothing above needed E listed
    assert np.array_equal(E.as_array(), twin.as_array())
    assert list(E) == list(twin)  # listing follows the same lexicographic order
    assert E.points == twin.points


@pytest.mark.parametrize("m, d", [(M3, 2), (M9, 2), (M9, 3), (Modulus(5, 1), 4)], ids=str)
def test_lazy_full_grid_matches_its_listed_twin(m, d):
    grid = PointSet.full_grid(m, d)
    twin = PointSet(m, d, itertools.product(range(m.q), repeat=d))
    assert len(grid) == len(twin) == m.q**d and grid.base is None
    assert grid == twin and hash(grid) == hash(twin)
    assert (0,) * d in grid and (m.q,) + (0,) * (d - 1) not in grid
    assert list(grid) == list(twin)
    assert np.array_equal(grid.as_array(), twin.as_array())


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
