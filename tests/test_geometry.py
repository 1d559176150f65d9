"""Plane structure: norms, spheres, strata, and the line census."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqgeom import _census, geometry
from zqgeom.geometry import (
    DimensionMismatch,
    average_line_points,
    det2,
    dot,
    incidence_census,
    line_generators,
    line_point_codes,
    lines_in_stratum,
    lines_through,
    norm,
    spanned_line,
    sphere_points,
    stratum_coords,
    stratum_of,
    stratum_points,
    stratum_size,
    stratum_table,
    vadd,
    vsub,
)
from zqgeom.ring import Modulus, is_prime

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
M27 = Modulus(3, 3)
M25 = Modulus(5, 2)
M49 = Modulus(7, 2)
M121 = Modulus(11, 2)


def test_vector_arithmetic():
    assert vadd(M9, (7, 8), (3, 3)) == (1, 2)
    assert vsub(M9, (0, 1), (2, 5)) == (7, 5)
    assert norm(M9, (1, 2)) == 5
    assert norm(M9, (3, 3)) == 0
    assert dot(M9, (1, 2), (2, 2)) == 6
    assert det2(M9, (1, 0), (0, 1)) == 1
    assert det2(M9, (2, 1), (1, 2)) == 3


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        dot(M9, (1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        vadd(M9, (1,), (1, 2))
    with pytest.raises(DimensionMismatch):
        det2(M9, (1, 2, 3), (1, 2, 0))


def test_sphere_points_small():
    assert sphere_points(M3, 1, 2) == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert sphere_points(M3, 0, 2) == ((0, 0),)
    assert len(sphere_points(M9, 1, 2)) == 12


def test_spheres_partition_the_grid():
    pts_by_norm = [sphere_points(M9, j, 2) for j in range(9)]
    for j, pts in enumerate(pts_by_norm):
        assert all(norm(M9, v) == j for v in pts)
    assert sum(len(pts) for pts in pts_by_norm) == 81


def test_stratum_of_examples():
    assert stratum_of(M9, (1, 6)) == 0
    assert stratum_of(M9, (3, 3)) == 1
    assert stratum_of(M9, (3, 0)) == 1
    assert stratum_of(M9, (0, 0)) == 2
    assert stratum_of(M27, (9, 18)) == 2


@pytest.mark.parametrize("m", [M9, M27, M25], ids=str)
def test_strata_partition_punctured_plane(m):
    seen = set()
    table = stratum_table(m)
    for n in range(m.l):
        pts = stratum_points(m, n)
        assert len(pts) == stratum_size(m, n)
        assert len(set(pts)) == len(pts)
        assert all(stratum_of(m, v) == n for v in pts)
        assert all(table[v] == n for v in pts)
        seen.update(pts)
    assert len(seen) == m.q**2 - 1
    assert (0, 0) not in seen
    assert table[0, 0] == stratum_of(m, (0, 0)) == m.l


def test_stratum_range_errors():
    with pytest.raises(ValueError):
        stratum_size(M9, 2)
    with pytest.raises(ValueError):
        stratum_points(M9, -1)


def test_line_census_small():
    top = lines_in_stratum(M9, 0)
    deep = lines_in_stratum(M9, 1)
    assert len(top) == 12
    assert len(deep) == 4
    assert len(lines_in_stratum(M3, 0)) == 4
    for line in top:
        assert len(line) == 9
        assert len(set(line.points())) == 9
    for line in deep:
        assert len(line) == 3


@pytest.mark.parametrize("m", [M9, M27, M25], ids=str)
def test_line_census_matches_formula(m):
    for n in range(m.l):
        lines = lines_in_stratum(m, n)
        assert len(lines) == m.p ** (m.l - n) + m.p ** (m.l - n - 1)
        # canonical generators name distinct point sets
        assert len({frozenset(line.points()) for line in lines}) == len(lines)
        assert all(line.stratum == n for line in lines)


def test_spanned_line_canonicalizes_the_generator():
    assert spanned_line(M9, (2, 4)) == spanned_line(M9, (1, 2))
    assert spanned_line(M9, (1, 2)).generator == (1, 2)
    assert spanned_line(M9, (6, 3)).generator == (3, 6)
    # second-coordinate units fall back to the (c, 1) form
    assert spanned_line(M9, (3, 1)).generator == (3, 1)
    with pytest.raises(ValueError):
        spanned_line(M9, (0, 0))
    with pytest.raises(DimensionMismatch):
        spanned_line(M9, (1, 2, 3))


# every odd prime power the determinant test was checked at against the old scalar solve
_MEMBERSHIP_MODULI = [Modulus.from_q(q) for q in (3, 5, 7, 9, 11, 13, 25, 27, 49)]


def test_line_membership_matches_point_listing():
    for m in _MEMBERSHIP_MODULI:
        grid = list(itertools.product(range(m.q), repeat=2))
        for n in range(m.l):
            for line in lines_in_stratum(m, n):
                pts = set(line.points())
                for v in grid:
                    assert (v in line) == (v in pts)


def test_lines_through_examples():
    assert [line.generator for line in lines_through(M9, (1, 0))] == [(1, 0)]
    assert [line.generator for line in lines_through(M9, (3, 3))] == [(1, 1), (1, 4), (1, 7)]
    with pytest.raises(ValueError):
        lines_through(M9, (0, 0))


@pytest.mark.parametrize("m", _MEMBERSHIP_MODULI, ids=str)
def test_lines_through_matches_the_per_line_loop(m):
    # the loop lines_through ran before it tested the census array at once
    census = [(line, set(line.points())) for line in lines_in_stratum(m, 0)]
    for v in itertools.product(range(m.q), repeat=2):
        if v != (0, 0):
            assert lines_through(m, v) == tuple(line for line, pts in census if v in pts)


@pytest.mark.parametrize("m", [M9, M27, M25], ids=str)
def test_point_line_incidence_counts(m):
    # a depth-n point sits on exactly p**n of the full-length lines
    for n in range(m.l):
        for v in stratum_points(m, n):
            assert len(lines_through(m, v)) == m.p**n


@pytest.mark.parametrize("m", [M9, M27, M25, M49], ids=str)
def test_incidence_census_matches_lines_through(m):
    hits = incidence_census(m)
    assert hits.shape == (m.q, m.q)
    for v in itertools.product(range(m.q), repeat=2):
        if v != (0, 0):
            assert hits[v] == len(lines_through(m, v))
    # the origin lies on every line
    assert hits[0, 0] == len(lines_in_stratum(m, 0))


def test_incidence_census_counts_a_line_once_per_point(monkeypatch):
    # a generator of stratum 1 posing as full length lists each point 3 times
    fake = np.array([3 * M9.q + 3])
    monkeypatch.setattr("zqgeom.geometry.line_generators", lambda m, n: fake)
    hits = incidence_census(M9)
    assert hits.sum() == 3
    assert hits[0, 0] == hits[3, 3] == hits[6, 6] == 1


def test_average_line_points_diagnostic():
    # 12 lines of 9 points and 4 lines of 3 points
    assert average_line_points(M9) == Fraction(12 * 9 + 4 * 3, 16)


@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
def test_det2_antisymmetry(u, v):
    assert det2(M9, u, v) == (-det2(M9, v, u)) % 9


@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
def test_norm_of_difference_is_symmetric(u, v):
    assert norm(M9, vsub(M9, u, v)) == norm(M9, vsub(M9, v, u))


# ---------------------------------------------------------------------------
# vectorized scans against the loops they replaced

_DIFFERENTIAL = [M9, M25, M27, M49, M121]


def _stratum_points_loop(m, n):
    pn, w = m.p**n, m.p ** (m.l - n)
    return tuple(
        (pn * a, pn * b) for a in range(w) for b in range(w) if a % m.p != 0 or b % m.p != 0
    )


def _lines_in_stratum_loop(m, n):
    found = {spanned_line(m, v) for v in _stratum_points_loop(m, n)}
    return tuple(sorted(found, key=lambda line: line.generator))


def _sphere_scan(m, d):
    # the itertools scan, every norm at once: spheres[j] in lexicographic order
    spheres = [[] for _ in range(m.q)]
    for v in itertools.product(range(m.q), repeat=d):
        spheres[norm(m, v)].append(v)
    return [tuple(pts) for pts in spheres]


# every odd prime power up to 625, each with all of its strata
_MODULI_TO_625 = [
    Modulus(p, l) for p in range(3, 626, 2) if is_prime(p) for l in range(1, 7) if p**l <= 625
]


def _stratum_coords_divmod(m, n):
    # the enumeration the mask replaced: every (a, b) < w in row-major order
    w = m.p ** (m.l - n)
    a, b = np.divmod(np.arange(w * w, dtype=np.int64), w)
    keep = (a % m.p != 0) | (b % m.p != 0)
    return a[keep], b[keep]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MODULI_TO_625))
def test_stratum_coords_match_the_divmod_enumeration(m):
    for n in range(m.l):
        a, b = stratum_coords(m, n)
        want_a, want_b = _stratum_coords_divmod(m, n)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
        # the arrays are shared through the cache, so they refuse writes
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1
        assert stratum_coords(m, n)[0] is a


def test_moduli_to_625_cover_every_odd_prime_power():
    qs = sorted(m.q for m in _MODULI_TO_625)
    assert qs[:8] == [3, 5, 7, 9, 11, 13, 17, 19] and qs[-1] == 625
    assert {25, 27, 81, 121, 125, 243, 343, 361, 529, 625} <= set(qs)
    assert 15 not in qs and 45 not in qs


@pytest.mark.parametrize("m", _DIFFERENTIAL, ids=str)
def test_line_census_matches_the_spanned_line_loop(m):
    for n in range(m.l):
        assert stratum_points(m, n) == _stratum_points_loop(m, n)
        lines = lines_in_stratum(m, n)
        assert lines == _lines_in_stratum_loop(m, n)
        assert all(type(c) is int for line in lines for c in line.generator)


_MODULI_TO_243 = [m for m in _MODULI_TO_625 if m.q <= 243]


# as many examples as moduli, which hypothesis's sampled_from then covers
@settings(max_examples=len(_MODULI_TO_243), deadline=None)
@given(st.sampled_from(_MODULI_TO_243))
def test_line_generator_arrays_match_the_spanned_line_loop(m):
    q = m.q
    for n in range(m.l):
        lines = _lines_in_stratum_loop(m, n)
        gens = line_generators(m, n)
        assert gens.dtype == np.int64 and not gens.flags.writeable
        assert gens.tolist() == [g0 * q + g1 for g0, g1 in (line.generator for line in lines)]
        rows = line_point_codes(m, n, gens)
        assert rows.shape == (len(lines), m.p ** (m.l - n)) and not rows.flags.writeable
        for row, line in zip(rows.tolist(), lines):
            points = sorted(x * q + y for x, y in set(line.points()))
            assert row == points + [q * q] * (len(row) - len(points))


# the 121**3-point Python scan takes seconds, so Z_121 in dimension 3 is
# sampled by the test after this one
@pytest.mark.parametrize(
    "m, d", [(m, d) for m in _DIFFERENTIAL for d in (1, 2, 3) if (m, d) != (M121, 3)], ids=str
)
def test_sphere_points_match_the_itertools_scan(m, d):
    for j, want in enumerate(_sphere_scan(m, d)):
        got = sphere_points(m, j, d)
        assert got == want
        assert all(type(c) is int for v in got for c in v)
    assert sphere_points(m, m.q + 1, d) == sphere_points(m, 1, d)


def test_sphere_points_in_dimension_3_over_z121_sampled():
    # one norm of each valuation, plus both ends of the residue range
    js = [0, 1, 2, 11, 22, 120]
    want = {j: [] for j in js}
    for v in itertools.product(range(M121.q), repeat=3):
        j = norm(M121, v)
        if j in want:
            want[j].append(v)
    for j in js:
        assert sphere_points(M121, j, 3) == tuple(want[j])


def test_sphere_points_in_small_blocks(monkeypatch):
    # one leading coordinate per block still lists the sphere in order
    monkeypatch.setattr(_census, "_BLOCK_BYTES", 8)
    for d in (1, 2, 3):
        assert sphere_points(M9, 4, d) == _sphere_scan(M9, d)[4]


def test_line_census_cache_is_bounded():
    caches = (line_generators, geometry._point_rows)
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    info = line_generators.cache_info()
    # 18 moduli with one or more strata each: more strata than the cache holds
    qs = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
    strata = sum(Modulus.from_q(q).l for q in qs)
    assert strata > info.maxsize
    for q in qs:
        m = Modulus.from_q(q)
        for n in range(m.l):
            gens = line_generators(m, n)
            assert len(gens) == m.p ** (m.l - n) + m.p ** (m.l - n - 1)
            assert len(line_point_codes(m, n, gens)) == len(gens)
    for cache in caches:
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
