"""Rotation group structure, stabilizers, and triangle congruence."""

import gc
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zqgeom import _census, fourier, geometry, orthogroup
from zqgeom.geometry import norm, stratum_of, vadd, vsub
from zqgeom.harness import random_subset
from zqgeom.orthogroup import (
    Rotation,
    TriangleClass,
    canonical_pair,
    congruence_witness,
    orbit_pair_total,
    realizes_every_pair,
    so2_elements,
    stabilizer,
    stabilizer_table,
    triangle_class_count,
    triangle_classes,
)
from zqgeom.ring import Modulus

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
M27 = Modulus(3, 3)
M25 = Modulus(5, 2)
M49 = Modulus(7, 2)


def test_so2_small_listing():
    assert [t.key() for t in so2_elements(M3)] == [(0, 1), (0, 2), (1, 0), (2, 0)]


@pytest.mark.parametrize(
    "q,size", [(3, 4), (9, 12), (27, 36), (5, 4), (25, 20), (7, 8), (49, 56)]
)
def test_so2_sizes(q, size):
    assert len(so2_elements(Modulus.from_q(q))) == size


def test_defining_relation():
    for m in (M9, M25):
        for t in so2_elements(m):
            assert (t.a * t.a + t.b * t.b) % m.q == 1


@pytest.mark.parametrize("m", [M3, M9, M25, M49], ids=str)
def test_group_axioms_exhaustive(m):
    elems = so2_elements(m)
    keys = {t.key() for t in elems}
    ident = Rotation(1, 0, m)
    assert ident.key() == (1, 0)
    for t in elems:
        assert t.inverse().key() in keys
        assert t.compose(t.inverse()).key() == (1, 0)
        assert t.transpose().key() == t.inverse().key()
        for u in elems:
            assert t.compose(u).key() in keys


def test_apply_examples():
    quarter = Rotation(0, 1, M3)
    assert quarter.apply((1, 0)) == (0, 1)
    assert quarter.apply((0, 1)) == (2, 0)
    half = Rotation(2, 0, M3)
    assert half.apply((1, 2)) == (2, 1)


@pytest.mark.parametrize("m", [M3, M9, M27], ids=str)
def test_rotations_preserve_norm_exhaustive(m):
    grid = list(itertools.product(range(m.q), repeat=2))
    for t in so2_elements(m):
        for v in grid:
            assert norm(m, t.apply(v)) == norm(m, v)


def test_apply_is_a_group_action():
    m = M9
    v = (2, 7)
    for t in so2_elements(m):
        for u in so2_elements(m):
            assert t.compose(u).apply(v) == t.apply(u.apply(v))


def test_stabilizer_examples():
    assert [t.key() for t in stabilizer(M9, (1, 0))] == [(1, 0)]
    assert [t.key() for t in stabilizer(M9, (3, 3))] == [(1, 0), (1, 3), (1, 6)]
    # the origin is fixed by everything
    assert len(stabilizer(M9, (0, 0))) == 12


@pytest.mark.parametrize("m", [M3, M9, M27], ids=str)
def test_stabilizer_bound_punctured_plane(m):
    bound = m.p ** (m.l - 1)
    for v in itertools.product(range(m.q), repeat=2):
        if v != (0, 0):
            assert len(stabilizer(m, v)) <= bound


def test_stabilizer_sizes_split_by_norm_when_p_is_1_mod_4():
    # zero-norm vectors exist in the top stratum here and soak up the
    # whole p**(l-1) allowance; nonzero-norm ones stay rigid
    worst = {True: 0, False: 0}
    for v in itertools.product(range(25), repeat=2):
        if v != (0, 0):
            key = norm(M25, v) == 0
            worst[key] = max(worst[key], len(stabilizer(M25, v)))
    assert worst[False] == 1
    assert worst[True] == 5


@pytest.mark.parametrize("q", [5, 13, 25, 125, 169, 625])
def test_zero_norm_stabilizers_meet_the_bound_when_p_is_1_mod_4(q):
    # the lemma suite states this bound for p = 3 mod 4 only, yet here too the
    # largest stabilizer on the nonzero zero-norm cone is exactly p**(l-1)
    m = Modulus.from_q(q)
    x = np.arange(q)
    cone = (x[:, None] ** 2 + x[None, :] ** 2) % q == 0
    cone[0, 0] = False
    assert stabilizer_table(m)[cone].max() == m.p ** (m.l - 1)


@pytest.mark.parametrize("m", [M9, M27, M49], ids=str)
def test_zero_norm_vectors_are_exactly_the_deep_strata(m):
    for v in itertools.product(range(m.q), repeat=2):
        if v == (0, 0):
            continue
        assert (norm(m, v) == 0) == (2 * stratum_of(m, v) >= m.l)


def test_congruence_is_reflexive_and_translation_invariant():
    m = M9
    t1 = ((0, 0), (1, 2), (3, 1))
    w = congruence_witness(m, t1, t1)
    assert w is not None and w.key() == (1, 0)
    shifted = tuple(vadd(m, x, (4, 7)) for x in t1)
    assert congruence_witness(m, t1, shifted) is not None


def test_congruence_witness_carries_all_three_differences():
    m = M9
    pts = list(random_subset(m, 2, 5, seed=1))
    triangles = list(itertools.permutations(pts, 3))[:8]
    found = 0
    for ta in triangles:
        for tb in triangles:
            w = congruence_witness(m, ta, tb)
            if w is None:
                continue
            found += 1
            for i, j in ((0, 1), (1, 2), (0, 2)):
                assert vsub(m, ta[i], ta[j]) == w.apply(vsub(m, tb[i], tb[j]))
    assert found >= len(triangles)  # at least the diagonal


def test_witnesses_compose():
    m = M9
    t1 = ((0, 0), (1, 2), (3, 1))
    r1, r2 = so2_elements(m)[5], so2_elements(m)[7]
    t2 = tuple(r1.apply(x) for x in t1)
    t3 = tuple(r2.apply(x) for x in t2)
    w12 = congruence_witness(m, t1, t2)
    w23 = congruence_witness(m, t2, t3)
    assert w12 is not None and w23 is not None
    comp = w12.compose(w23)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        assert vsub(m, t1[i], t1[j]) == comp.apply(vsub(m, t3[i], t3[j]))


def test_not_congruent_across_strata():
    m = M9
    # difference vectors in different strata can never match
    t1 = ((0, 0), (1, 0), (2, 0))
    t2 = ((0, 0), (3, 0), (6, 0))
    assert congruence_witness(m, t1, t2) is None


def test_canonical_pair_is_an_orbit_invariant():
    m = M9
    pairs = [((1, 2), (3, 1)), ((0, 1), (0, 0)), ((3, 3), (6, 0))]
    for u, v in pairs:
        key = canonical_pair(m, u, v)
        assert canonical_pair(m, *key) == key  # idempotent
        for t in so2_elements(m):
            assert canonical_pair(m, t.apply(u), t.apply(v)) == key


def test_same_class_key_means_congruent():
    m = M3
    pts = list(itertools.product(range(3), repeat=2))
    triangles = list(itertools.product(pts[:4], repeat=3))[:12]
    for ta in triangles:
        for tb in triangles:
            ka = canonical_pair(m, vsub(m, ta[0], ta[1]), vsub(m, ta[1], ta[2]))
            kb = canonical_pair(m, vsub(m, tb[0], tb[1]), vsub(m, tb[1], tb[2]))
            assert (congruence_witness(m, ta, tb) is not None) == (ka == kb)


def test_triangle_classes_single_point():
    assert triangle_classes(M9, [(4, 5)]) == {TriangleClass((0, 0), (0, 0)): 1}


def test_triangle_classes_totals_and_positivity():
    E = random_subset(M9, 2, 7, seed=3)
    counts = triangle_classes(M9, E)
    assert sum(counts.values()) == 7**3
    assert all(c > 0 for c in counts.values())


def test_triangle_classes_two_point_bruteforce():
    m = M9
    pts = [(0, 0), (1, 2)]
    counts = triangle_classes(m, pts)
    # bucket the 8 ordered triples by pairwise congruence instead
    buckets = []
    for tri in itertools.product(pts, repeat=3):
        for bucket in buckets:
            if congruence_witness(m, bucket[0], tri) is not None:
                bucket.append(tri)
                break
        else:
            buckets.append([tri])
    assert sorted(counts.values()) == sorted(len(b) for b in buckets)


def test_triangle_classes_full_plane():
    counts = triangle_classes(M3, itertools.product(range(3), repeat=2))
    assert len(counts) == 21
    assert sum(counts.values()) == 729


def test_triangle_class_count_agrees_with_burnside():
    # with every multiplicity positive, the class count is the orbit count,
    # which the fixed-point average computes independently
    m = M3
    group = so2_elements(m)
    pairs = list(itertools.product(itertools.product(range(3), repeat=2), repeat=2))
    fixed = sum(
        1 for t in group for u, v in pairs if t.apply(u) == u and t.apply(v) == v
    )
    assert fixed % len(group) == 0
    counts = triangle_classes(m, itertools.product(range(3), repeat=2))
    assert len(counts) == fixed // len(group)


def test_triangle_classes_rotation_invariant():
    m = M9
    E = list(random_subset(m, 2, 6, seed=9))
    rot = so2_elements(m)[4]
    assert triangle_classes(m, E) == triangle_classes(m, [rot.apply(v) for v in E])


# -- the vectorized census against the per-triple loop it replaced ----------


def _so2_loop(m):
    q = m.q
    return [(a, b) for a in range(q) for b in range(q) if (a * a + b * b) % q == 1]


def _triangle_classes_loop(m, points):
    pts = list(points)
    counts = {}
    for x in pts:
        for y in pts:
            u = vsub(m, x, y)
            for z in pts:
                key = canonical_pair(m, u, vsub(m, y, z))
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27, 49, 81, 121, 125, 243])
def test_so2_table_matches_the_defining_loop(q):
    elems = so2_elements(Modulus.from_q(q))
    assert [t.key() for t in elems] == _so2_loop(Modulus.from_q(q))
    assert all(type(t.a) is int and type(t.b) is int for t in elems)


_MODULI = [M3, Modulus(5, 1), Modulus(7, 1), M9, M25, M27]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_MODULI),
    st.lists(st.tuples(st.integers(-30, 60), st.integers(-30, 60)), max_size=9),
    st.integers(0, 3),
)
def test_triangle_classes_match_the_triple_loop(m, pts, repeats):
    pts = pts + pts[:repeats]  # duplicates count as separate vertices
    counts = triangle_classes(m, pts)
    assert counts == _triangle_classes_loop(m, pts)
    assert all(type(c) is int for c in counts.values())
    for key in counts:
        assert canonical_pair(m, *key) == key


def test_triangle_classes_beyond_int64_code_pairs():
    # at q = 3**10, q**4 > 2**63: a pair of vector codes no longer packs into
    # one int64, so the classes must be grouped without that packing
    m = Modulus(3, 10)
    pts = [(59048, 59047), (29524, 1), (59048, 59047)]
    assert m.q**4 > 2**63
    assert triangle_classes(m, pts) == _triangle_classes_loop(m, pts)


def test_triangle_classes_empty_and_non_planar():
    assert triangle_classes(M9, []) == {}
    with pytest.raises(ValueError):
        triangle_classes(M9, [(1, 2, 3)])


@pytest.mark.parametrize("chunk_bytes", [64, 1024, 4096])
def test_triangle_classes_tiny_chunks(monkeypatch, chunk_bytes):
    # tiny blocks force many chunks: key tallies merging several pending
    # parts, dense counts over many middle-vertex chunks at 1024 and 4096
    # bytes (the repeated 2 x 2 square has only 9 distinct differences),
    # chunked canonicalization and group tables
    monkeypatch.setattr(_census, "_BLOCK_BYTES", chunk_bytes)
    orthogroup.so2_table.cache_clear()
    orthogroup.so2_elements.cache_clear()
    try:
        cases = [(M9, [(0, 0), (1, 0), (0, 1), (1, 1)] * 3)]
        for m, n, seed in ((M9, 12, 1), (M25, 10, 2), (M27, 8, 3)):
            pts = list(random_subset(m, 2, n, seed=seed))
            cases.append((m, pts + pts[:3]))
        for m, pts in cases:
            assert triangle_classes(m, pts) == _triangle_classes_loop(m, pts)
        assert [t.key() for t in so2_elements(M49)] == _so2_loop(M49)
    finally:
        orthogroup.so2_table.cache_clear()
        orthogroup.so2_elements.cache_clear()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 300),
    st.integers(0, 3),
    st.lists(st.lists(st.integers(0, 10**6), max_size=40), max_size=6),
)
def test_residue_table_matches_the_sorted_merge(q, start, values):
    # a 1-byte chunk sends every q through the tally that serves q > 2**23
    blocks = [np.array(b, dtype=np.int64).reshape(-1, 1) % q for b in values]
    start = min(start, q - 1)
    want = sorted({v % q for b in values for v in b if v % q >= start})
    assert _census._residues(iter(blocks), q, start).tolist() == want
    with mock.patch.object(_census, "_BLOCK_BYTES", 1):
        assert _census._residues(iter(blocks), q, start).tolist() == want


def test_residues_stop_once_every_value_has_occurred():
    def blocks():
        yield np.array([[3, 1], [6, 2], [5, 4]])  # every 1 <= t < 7
        raise AssertionError("read a block past saturation")

    for chunk in (_census._BLOCK_BYTES, 1):
        with mock.patch.object(_census, "_BLOCK_BYTES", chunk):
            assert _census._residues(blocks(), 7, start=1).tolist() == [1, 2, 3, 4, 5, 6]


def test_group_caches_are_bounded():
    for fn in (orthogroup.so2_table, so2_elements):
        assert fn.cache_info().maxsize is not None
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29):
        so2_elements(Modulus.from_q(q))
    assert so2_elements.cache_info().currsize <= so2_elements.cache_info().maxsize
    canonical_pair(M9, (1, 2), (3, 4))
    assert canonical_pair.cache_info().currsize == 0


# -- the stabilizer table against a scan of the group ----------------------


def _stabilizer_scan(m, xi):
    # the Rotation-object scan of the whole group that stabilizer() replaced
    xi = (xi[0] % m.q, xi[1] % m.q)
    return tuple(t for t in so2_elements(m) if t.apply(xi) == xi)


@pytest.mark.parametrize("m", [M9, M25, M27], ids=str)
def test_stabilizer_table_counts_the_stabilizer(m):
    # the two stabilizer counters name one fact
    table = stabilizer_table(m)
    assert table.shape == (m.q, m.q)
    for v in itertools.product(range(m.q), repeat=2):
        keys = [t.key() for t in stabilizer(m, v)]
        assert keys == [t.key() for t in _stabilizer_scan(m, v)]
        assert table[v] == len(keys)


# -- the count-only census of the t2 experiment -----------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_MODULI),
    st.lists(st.tuples(st.integers(-30, 60), st.integers(-30, 60)), max_size=9),
    st.integers(0, 3),
    st.sampled_from([None, 64]),
)
def test_triangle_class_count_matches_the_census(m, pts, repeats, chunk_bytes):
    # 64-byte chunks key every set with 3 or more distinct differences one
    # middle vertex at a time, in both censuses, and tally the keys over
    # many merges in triangle_classes
    pts = pts + pts[:repeats]
    chunk = _census._BLOCK_BYTES if chunk_bytes is None else chunk_bytes
    with mock.patch.object(_census, "_BLOCK_BYTES", chunk):
        assert triangle_class_count(m, pts) == len(triangle_classes(m, pts))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_MODULI),
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1, max_size=12),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.sampled_from([np.int64, np.int32, np.float64]),
)
def test_triangle_class_count_reduces_unreduced_arrays(m, pts, shift, dtype):
    # negative, unreduced or non-int64 integer arrays count as their reduced
    # rows, and the caller's array is left as it was; float arrays are refused,
    # integral or not
    reduced = np.array(pts, dtype=np.int64) % m.q
    raw = (reduced + m.q * np.array(shift)).astype(dtype)
    before = raw.copy()
    if dtype == np.float64:
        for count in (triangle_class_count, triangle_classes):
            with pytest.raises(ValueError):
                count(m, raw)
    else:
        assert triangle_class_count(m, raw) == triangle_class_count(m, reduced)
        assert len(triangle_classes(m, raw)) == len(triangle_classes(m, reduced))
    assert np.array_equal(raw, before)
    # a reduced int64 array, as PointSet.as_array() gives, is read in place
    reduced.flags.writeable = False
    assert geometry._read_points(m, 2, reduced) is reduced
    assert triangle_class_count(m, reduced) == triangle_class_count(m, pts)


def test_triangle_class_count_of_the_full_grid():
    assert triangle_class_count(M3, itertools.product(range(3), repeat=2)) == 21
    assert triangle_class_count(M9, []) == 0
    with pytest.raises(ValueError):
        triangle_class_count(M9, [(1, 2, 3)])


# -- closed-form orbit keys --------------------------------------------------


def _pair_space(m):
    """Codes ru, rv and vectors u, v of every pair of plane vectors, u major."""
    codes = np.arange(m.q**2)
    ru, rv = np.repeat(codes, m.q**2), np.tile(codes, m.q**2)
    return ru, rv, np.stack(np.divmod(ru, m.q), axis=1), np.stack(np.divmod(rv, m.q), axis=1)


def _same_partition(a, b):
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    return len(np.unique(ia * (ib.max() + 1) + ib)) == ia.max() + 1 == ib.max() + 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_pair_orbit_keys_partition_the_pair_space_like_canonical_pairs(q):
    m = Modulus.from_q(q)
    ru, rv, u, v = _pair_space(m)
    keys = orthogroup.pair_orbit_keys(m, u, v)
    cu, cv = orthogroup._canonical_pairs(m, np.arange(q * q), ru, rv)
    assert _same_partition(keys, cu * q**2 + cv)
    # the vectors broadcast: every first difference against every second
    grid = u[:: q * q]
    assert (orthogroup.pair_orbit_keys(m, grid[:, None], grid[None, :]).ravel() == keys).all()


@pytest.mark.parametrize("q", [17, 19, 25, 27])
def test_pair_orbit_keys_count_every_orbit(q):
    m = Modulus.from_q(q)
    _, _, u, v = _pair_space(m)
    assert len(np.unique(orthogroup.pair_orbit_keys(m, u, v))) == orbit_pair_total(m)


def _cayley(q, t):
    """The rotation ((1 - t**2) / (1 + t**2), 2t / (1 + t**2)) mod q."""
    inv = pow(1 + t * t, -1, q)
    return (1 - t * t) * inv % q, 2 * t * inv % q


@pytest.mark.parametrize("p, l", [(2**31 - 1, 1), (2147483629, 1), (3, 19), (5, 13), (1009, 2)])
def test_pair_orbit_keys_past_int64_are_records_that_rotations_keep(p, l):
    # the key space (6 l + 1) q**3 passes 2**63, so the keys are wide;
    # deep pairs reach branch 4, and for p = 1 mod 4 isotropic ones branch 3
    m = Modulus(p, l)
    q = m.q
    assert (6 * l + 1) * q**3 > 2**63
    rng = np.random.default_rng(p)
    u, v = rng.integers(0, q, size=(300, 2)), rng.integers(0, q, size=(300, 2))
    u[:100] = u[:100] * p ** (l // 2) % q
    v[:100] = v[:100] * p ** (l // 2) % q
    u[:10] = v[:10] = 0
    if p % 4 == 1:
        t, iota = rng.integers(0, q, size=(2, 100)), orthogroup._iota(m)
        u[100:200] = np.stack([iota * t[0] % q, t[0]], axis=1)
        v[100:150] = np.stack([-iota * t[1][:50] % q, t[1][:50]], axis=1)
    keys = orthogroup.pair_orbit_keys(m, u, v)
    assert keys.dtype == orthogroup._WIDE_KEY
    for t in (1, 2, 3, 5):
        if (1 + t * t) % p == 0:
            continue
        a, b = _cayley(q, t)

        def turn(w):
            return np.stack([(a * w[:, 0] - b * w[:, 1]) % q, (b * w[:, 0] + a * w[:, 1]) % q], 1)

        assert (orthogroup.pair_orbit_keys(m, turn(u), turn(v)) == keys).all()
    # these first differences u = p**k w, w of unit norm or isotropic, are
    # fixed by no rotation that moves a p**k v, so distinct v mod q / p**k
    # give distinct keys
    k = l // 2
    w = np.unique(rng.integers(0, q // p**k, size=(100, 2)), axis=0)
    cases = [((1, 0), w), ((p**k, 0), p**k * w)]
    if p % 4 == 1:
        cases.append(((orthogroup._iota(m), 1), w))
    for first, second in cases:
        keys = orthogroup.pair_orbit_keys(m, np.array(first), second)
        assert len(_census._merged([keys])) == len(w)


def _special_set(m, family, seed):
    """An (n, 2) array of one family: empty, one point, a random part of the
    strip Z_q x pZ_q, or points near the isotropic lines x = +-iota y for
    p = 1 mod 4 (deep points pZ_q**2 for p = 3 mod 4), plus random points."""
    rng = np.random.default_rng(seed)
    q, p, n = m.q, m.p, int(rng.integers(2, 40))
    if family == "empty":
        return np.empty((0, 2), dtype=np.int64)
    if family == "point":
        return rng.integers(0, q, size=(1, 2))
    if family == "strip":
        return np.stack([rng.integers(0, q, n), p * rng.integers(0, q // p, n)], axis=1)
    t = rng.integers(0, q, size=(2, n))
    if family == "isotropic" and p % 4 == 1:
        pts = np.stack([orthogroup._iota(m) * t[0] * rng.choice([1, -1], n), t[0]], axis=1)
    else:
        pts = p * t.T
    pts[: n // 5] = rng.integers(0, q, size=(n // 5, 2))  # a few off the lines
    return (pts + rng.integers(0, q, 2)) % q


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([M3, Modulus(5, 1), M9, Modulus(13, 1), M25, M27, M49, Modulus(5, 3)]),
    st.sampled_from(["empty", "point", "strip", "isotropic", "deep"]),
    st.integers(0, 2**32),
)
def test_triangle_class_count_matches_the_census_on_special_sets(m, family, seed):
    E = _special_set(m, family, seed)
    assert triangle_class_count(m, E) == len(triangle_classes(m, E))


@settings(max_examples=2, deadline=None)
@given(st.sampled_from([625, 727, 729]), st.integers(60, 150), st.integers(0, 2**16))
def test_triangle_class_count_matches_the_census_on_sparse_sets(q, n, seed):
    # the census's own count, without the class dict of triangle_classes;
    # two examples, as the census takes about 3.5 s at n = 150
    m = Modulus.from_q(q)
    E = random_subset(m, 2, n, seed=seed).as_array()
    assert triangle_class_count(m, E) == len(orthogroup._class_census(m, E)[2])


def test_key_count_scans_no_group(monkeypatch):
    # the census regime finds every class from its key alone: no group
    # table, orbit minimum or canonical pair is ever made
    cases = [
        (M27, _strip(M27)[::7]),
        (M25, _special_set(M25, "isotropic", 1)),
        (Modulus(5, 3), _special_set(Modulus(5, 3), "deep", 2)),
        (Modulus(727, 1), random_subset(Modulus(727, 1), 2, 40, seed=1).as_array()),
        (Modulus(727, 1), _line(120)),  # past one block, with the dense pair table
    ]
    want = [len(triangle_classes(m, E)) for m, E in cases]

    def refuse(*args):
        raise AssertionError("the key count scanned the group")

    for name in ("so2_table", "_orbit_min", "_canonical_pairs"):
        monkeypatch.setattr(orthogroup, name, refuse)
    assert [triangle_class_count(m, E) for m, E in cases] == want


def _line(n):
    return np.stack([np.arange(n), np.zeros(n, dtype=np.int64)], axis=1)


@pytest.mark.parametrize(
    "m, E, per_key, bound",
    [
        # 40 sparse points: their 64000 triples are fewer than the key space
        # and the pairs of their distinct differences
        (Modulus(727, 1), random_subset(Modulus(727, 1), 2, 40, seed=3).as_array(), 32, 40**3),
        # 30 points of Z_11: 27000 triples, about 121**2 difference pairs, and
        # a key space of 7 * 11**3 = 9317
        (Modulus(11, 1), random_subset(Modulus(11, 1), 2, 30, seed=0).as_array(), 32, 7 * 11**3),
        # 60 points on a line of Z_727: 119 distinct differences
        (Modulus(727, 1), _line(60), 32, 119**2),
        # three points at q = 2**31 - 1: every key is a two-field record
        (Modulus(2**31 - 1, 1), np.array([(1, 2), (5, 9), (100, 7)]), 64, 27),
    ],
    ids=["triples", "key-space", "difference-pairs", "records"],
)
def test_key_count_byte_budget_is_the_least_key_bound(monkeypatch, m, E, per_key, bound):
    # below the cover's rule, the keys number at most the triples, the key
    # space and the pairs of distinct differences; records cost twice the bytes
    n = len(E)
    assert n**3 < m.q**4 * math.log(m.q**2) and not realizes_every_pair(m, n)
    held = per_key * bound
    assert orthogroup._ORBIT_KEY_BYTES * orthogroup._key_dtype(m).itemsize // 8 == per_key
    want = 16 if n == 3 else len(triangle_classes(m, E))  # 1 + 9 + 6, as in test_cli
    monkeypatch.setattr(_census, "_CENSUS_BYTES", held - 1)
    with pytest.raises(ValueError, match=f"n = {n} points may hold {held} bytes of orbit keys, "
                                         f"over the {held - 1}-byte budget"):
        triangle_class_count(m, E)
    monkeypatch.setattr(_census, "_CENSUS_BYTES", held)
    assert triangle_class_count(m, E) == want


@pytest.mark.parametrize(
    "m, E, want",
    [
        # 500 points: 1.25e8 triples, but 727 distinct differences, so the
        # dense pair table finds the realized pairs
        (Modulus(727, 1), _line(500), None),
        # 323 points: 1521 distinct differences, so every triple is keyed;
        # the count is len(triangle_classes), which takes about 6 s here
        (Modulus(13, 2), np.array([(i, j) for i in range(19) for j in range(17)]), 238826),
    ],
    ids=["line-z727", "box-z169"],
)
def test_key_count_admits_sets_with_few_differences_past_n3_bytes(monkeypatch, m, E, want):
    # 32 bytes per triple would pass the 1 GiB budget, but the keys number
    # at most the pairs of distinct differences
    n = len(E)
    assert orthogroup._ORBIT_KEY_BYTES * n**3 > _census._CENSUS_BYTES
    assert n**3 <= _census._OP_CAP and n**3 < m.q**4 * math.log(m.q**2)
    want = len(triangle_classes(m, E)) if want is None else want
    keyed, keys = [], orthogroup.pair_orbit_keys

    def counted(m, u, v):
        out = keys(m, u, v)
        keyed.append(out.size)
        return out

    monkeypatch.setattr(orthogroup, "pair_orbit_keys", counted)
    assert triangle_class_count(m, E) == want
    # with at most 1024 differences the dense pair table keys each realized
    # pair once, not every triple
    size = len(_census._residues(orthogroup._difference_blocks(E, m.q), m.q**2))
    assert sum(keyed) <= size**2 if size <= 1024 else sum(keyed) == n**3


# -- the Burnside orbit total and the covering certificate ------------------


@pytest.mark.parametrize("q", [7, 9, 25, 27, 49, 81, 125, 169])
def test_orbit_pair_total_matches_the_fixed_point_scan(q):
    # |Fix theta| counted on each rotated plane, against p**(2 min(v(a-1), v(b)))
    m = Modulus.from_q(q)
    group = so2_elements(m)
    x = np.arange(q, dtype=np.int64)
    X, Y = x[:, None], x[None, :]
    squares = 0
    for t in group:
        a, b = t.key()
        fixed = int((((a * X - b * Y) % q == X) & ((b * X + a * Y) % q == Y)).sum())
        assert fixed == m.p ** (2 * min(m.valuation(a - 1), m.valuation(b)))
        squares += fixed * fixed
    assert squares % len(group) == 0
    assert orbit_pair_total(m) == squares // len(group)


@pytest.mark.parametrize("q, classes", [(7, 301), (9, 561), (25, 19657), (27, 15141)])
def test_orbit_pair_total_matches_the_full_grid_census(q, classes):
    m = Modulus.from_q(q)
    grid = list(itertools.product(range(q), repeat=2))
    assert orbit_pair_total(m) == len(triangle_classes(m, grid)) == classes
    assert triangle_class_count(m, grid) == classes


def test_covering_certificate_threshold():
    # 3n > 2q**2, in integers: 2 * 49**2 / 3 = 1600.67
    assert not realizes_every_pair(M49, 1600) and realizes_every_pair(M49, 1601)
    assert not realizes_every_pair(M9, 54) and realizes_every_pair(M9, 55)


_PAIR_LABELS: dict = {}


def _pair_labels(m):
    """label[u * q**2 + v] = least code of the orbit of (u, v), over all pairs."""
    if m not in _PAIR_LABELS:
        q, q2 = m.q, m.q**2
        x, y = np.divmod(np.arange(q2), q)
        labels = np.full(q2 * q2, q2 * q2, dtype=np.int64)
        for t in so2_elements(m):
            img = (t.a * x - t.b * y) % q * q + (t.b * x + t.a * y) % q
            np.minimum(labels, (img[:, None] * q2 + img[None, :]).ravel(), out=labels)
        _PAIR_LABELS[m] = labels
    return _PAIR_LABELS[m]


def _realized_orbits(m, E):
    """Orbits touched by the realized pairs (x - y, y - z), by brute force:
    (u, v) is realized when sum_y E(y) E(y + u) E(y - v) > 0, a correlation
    over y taken by FFT, one row u0 of differences u at a time."""
    q = m.q
    ind = np.zeros((q, q))
    for x, y in E:
        ind[x, y] = 1
    spectrum = np.conj(np.fft.fft2(ind))
    shift = np.add.outer(np.arange(q), np.arange(q)) % q  # shift[u, y] = y + u
    realized = np.empty((q, q, q * q), dtype=bool)
    for u0 in range(q):
        # both[u1, y0, y1] = E(y) E(y + u)
        both = ind * ind[shift[u0][None, :, None], shift[:, None, :]]
        corr = np.fft.ifft2(np.fft.fft2(both) * spectrum).real
        realized[u0] = corr.reshape(q, q * q) > 0.5
    return len(np.unique(_pair_labels(m)[realized.ravel()]))


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([(M9, 6), (M25, 12), (M49, 10)]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_covering_certificate_matches_the_census(case, above, seed):
    # n on either side of 2q**2 / 3; the census runs wherever n**3 allows,
    # the FFT correlation everywhere
    m, spread = case
    edge = 2 * m.q**2 // 3 + 1  # the least n with 3n > 2q**2
    n = edge + seed % spread if above else edge - 1 - seed % spread
    E = list(random_subset(m, 2, n, seed=seed))
    covered = realizes_every_pair(m, n)
    assert covered == (n >= edge)
    oracle = _realized_orbits(m, E)
    if covered:
        assert triangle_class_count(m, E) == orbit_pair_total(m) == oracle
    if m != M49:
        assert len(triangle_classes(m, E)) == triangle_class_count(m, E) == oracle


# -- the orbit cover, below the covering size -------------------------------

M11, M13 = Modulus(11, 1), Modulus(13, 1)


def _difference_histogram_loop(m, E):
    q = m.q
    h = np.zeros(q * q, dtype=np.int64)
    for x in E:
        for y in E:
            h[(x[0] - y[0]) % q * q + (x[1] - y[1]) % q] += 1
    return h


def _certified_orbits(m, E):
    """(orbits of the nonzero realized differences, how many of them have a
    member u with h[u] + n > q**2), from the pair-loop histogram."""
    h = _difference_histogram_loop(m, E)
    realized = np.flatnonzero(h)[1:]  # u = 0 always passes: h[0] = n > q**2 - n
    least = orthogroup._orbit_min(orthogroup.so2_table(m), realized, m.q)[0]
    certified = np.unique(least[h[realized] + len(E) > m.q**2])
    return len(np.unique(least)), len(certified)


def _cover(m, E, budget=None):
    """_cover_count of the distinct points E, within the op cap by default."""
    codes = np.unique([x * m.q + y for x, y in E])
    return orthogroup._cover_count(m, codes, _census._OP_CAP if budget is None else budget)


# (n, seed) per modulus where no nonzero orbit, some orbits, or every orbit
# of realized differences has a member passing the certificate; the old
# per-difference window counted these, and the orbit cover counts them now
_WINDOW_CASES = {
    "none": [(M9, 41, 0), (M11, 61, 0), (M13, 85, 0), (M25, 313, 0), (M27, 365, 0)],
    "some": [(M9, 49, 0), (M11, 72, 0), (M13, 102, 0), (M25, 376, 1), (M27, 443, 2)],
    "all": [(M9, 51, 0), (M11, 75, 0), (M13, 104, 2), (M25, 388, 1), (M27, 451, 0)],
}


@pytest.mark.parametrize(
    "m, n, seed, certified",
    [(*case, kind) for kind, cases in _WINDOW_CASES.items() for case in cases],
    ids=[f"z{m.q}-{n}-{kind}" for kind, cases in _WINDOW_CASES.items() for m, n, _ in cases],
)
def test_windowed_count_matches_the_census(m, n, seed, certified):
    E = list(random_subset(m, 2, n, seed=seed))
    assert m.q**2 < 2 * n and not realizes_every_pair(m, n)
    assert n**3 >= m.q**4 * math.log(m.q**2)  # the cover's regime
    orbits, passed = _certified_orbits(m, E)
    assert {"none": passed == 0, "all": passed == orbits, "some": 0 < passed < orbits}[certified]
    want = len(triangle_classes(m, E))
    assert triangle_class_count(m, E) == _cover(m, E) == want


def test_certificate_needs_sizes_summing_past_the_plane():
    # at h[u] + n = q**2, E ∩ (E - u) may be exactly the complement of some
    # E + v, so (u, v) is not realized; here that leaves one pair orbit out
    E = list(random_subset(M3, 2, 6, seed=4))
    h = _difference_histogram_loop(M3, E)
    assert (h + len(E) == 9).any()
    assert triangle_class_count(M3, E) == len(triangle_classes(M3, E)) == 20
    assert orbit_pair_total(M3) == 21


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([M3, M9, M11, M13, M25, M27]),
    st.integers(0, 10**6),
    st.integers(0, 2**16),
    st.sampled_from([None, 64, 4096]),
)
def test_windowed_count_matches_the_census_over_the_window(m, where, seed, chunk):
    # between half the plane and the covering size, where the per-difference
    # window ran; tiny chunks split the orbit scans of the cover and of the
    # census, only where the blocks stay few enough to be quick
    q2 = m.q**2
    lo, hi = q2 // 2 + 1, 2 * q2 // 3
    E = list(random_subset(m, 2, lo + where % (hi - lo + 1), seed=seed))
    want = len(triangle_classes(m, E))
    if chunk is None or m.q > 13:
        chunk = _census._BLOCK_BYTES
    with mock.patch.object(_census, "_BLOCK_BYTES", chunk):
        assert triangle_class_count(m, E) == want


_PRIME_POWERS = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PRIME_POWERS), st.integers(0, 2**32), st.integers(0, 2**16))
def test_orbit_cover_matches_the_census(q, where, seed):
    # the cover called directly, whatever regime triangle_class_count picks,
    # from one point to the whole plane
    m = Modulus.from_q(q)
    E = list(random_subset(m, 2, 1 + where % q**2, seed=seed))
    assert _cover(m, E) == len(triangle_classes(m, E))


def _strip(m):
    return [(x, m.p * y) for x in range(m.q) for y in range(m.q // m.p)]


def _ball(m):
    return [(1 + m.p * x, 2 + m.p * y) for x in range(m.q // m.p) for y in range(m.q // m.p)]


def _pencil(m, directions):
    return list({(t * a % m.q, t * b % m.q) for a, b in directions for t in range(m.q)})


def _axis_and_point(m):
    return [(x, 0) for x in range(m.q)] + [(1, 1)]


# structured sets leave pair orbits unrealized, so they run the cover's
# fallback over every member of an orbit, and its key count at depth > 0
_STRUCTURED = {
    "strip": (_strip, {9: 129, 25: 1657, 27: 3477}),
    "ball": (_ball, {9: 21, 25: 157, 27: 561}),
    "axes": (partial(_pencil, directions=[(1, 0), (0, 1)]), {9: 497, 25: 14161, 27: 13268}),
    "pencil3": (partial(_pencil, directions=[(1, 0), (0, 1), (1, 1)]),
                {9: 561, 25: 19111, 27: 15141}),
    "axis+1": (_axis_and_point, {9: 236, 25: 2080, 27: 2294}),
}


@pytest.mark.parametrize("q", [9, 25, 27])
@pytest.mark.parametrize("family", list(_STRUCTURED))
def test_orbit_cover_matches_the_census_on_structured_sets(q, family):
    m = Modulus.from_q(q)
    build, counts = _STRUCTURED[family]
    E = build(m)
    assert _cover(m, E) == len(triangle_classes(m, E)) == counts[q]


def test_structured_sets_reach_the_fallback_at_every_depth(monkeypatch):
    # the depths of the orbits left open once every member has cut, whose
    # missed pair orbits the fallback counts by pair_orbit_keys of (u, v)
    depths = set()
    real = orthogroup.pair_orbit_keys

    def keys(m, u, v):
        depths.add(min(m.valuation(u[0]), m.valuation(u[1])))
        return real(m, u, v)

    monkeypatch.setattr(orthogroup, "pair_orbit_keys", keys)
    for q in (9, 25, 27):
        for build, _ in _STRUCTURED.values():
            _cover(Modulus.from_q(q), build(Modulus.from_q(q)))
    assert 0 in depths and max(depths) > 0


def _missed_by_stabilizer(m, u, inside):
    """The cover's fallback before the keys: the Stab(u)-orbits of v lying
    wholly in U, given as a boolean mask over the plane codes."""
    q = m.q
    stab, left = orthogroup._fixing(m, u), np.flatnonzero(inside)
    heads = np.unique(orthogroup._orbit_min(stab, left, q)[0])
    return int(inside[orthogroup._turn(stab[:, :1], stab[:, 1:], heads, q)].all(0).sum())


_ODD_PRIME_POWERS_TO_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_ODD_PRIME_POWERS_TO_49),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.3, 0.9, 0.99, 1.0]),
    st.booleans(),
)
def test_missed_orbits_by_keys_match_the_stabilizer_count(q, where, seed, density, whole):
    # (u, v) is missed when its whole Stab(u)-orbit lies in U, that is when
    # its key occurs among the keys of (u, U) and not among those of the rest
    m = Modulus.from_q(q)
    rng = np.random.default_rng(seed)
    depth = where % (m.l + 1)
    w = rng.integers(q, size=2)
    w[0] += (w % m.p == 0).all()  # primitive, so p**depth w has that depth
    u = int(m.p**depth * w[0] % q * q + m.p**depth * w[1] % q)
    assert _depth(m, u) == depth
    plane = np.arange(q * q)
    inside = rng.random(q * q) < density
    if whole:  # some Stab(u)-orbits whole, and about one cell in 100 taken out again
        heads = orthogroup._orbit_min(orthogroup._fixing(m, u), plane, q)[0]
        inside = inside[heads] & (rng.random(q * q) < 0.99)
    keys = orthogroup.pair_orbit_keys(m, divmod(u, q), np.stack(np.divmod(plane, q), axis=-1))
    missed = len(np.setdiff1d(keys[inside], keys[~inside]))
    assert missed == _missed_by_stabilizer(m, u, inside)
    if inside.all():
        assert missed == orthogroup._pair_orbits_by_depth(m)[depth]


def _overlaps_by_pairs(codes, q, others=None):
    """|E ∩ (E - w)| at each plane code w: a bincount of the difference
    codes over E x E; given others, of the differences a - b over E x others."""
    x, y = np.divmod(np.asarray(codes, dtype=np.int64), q)
    u, v = (x, y) if others is None else np.divmod(np.asarray(others, dtype=np.int64), q)
    return np.bincount(((x[:, None] - u) % q * q + (y[:, None] - v) % q).ravel(), minlength=q * q)


def _indicator(codes, q):
    return (np.bincount(codes, minlength=q * q) > 0).reshape(q, q)


def _overlaps_by_fft(codes, q):
    ind = _indicator(codes, q)
    return fourier._correlation(ind, ind).ravel()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_ODD_PRIME_POWERS_TO_49),
    st.sampled_from(["empty", "point", "strip", "full", "random"]),
    st.integers(0, 2**32),
    st.floats(0, 1),
)
def test_overlap_sizes_match_the_difference_bincount(q, shape, seed, density):
    m, rng, plane = Modulus.from_q(q), np.random.default_rng(seed), np.arange(q * q)
    if shape == "empty":
        codes = plane[:0]
    elif shape == "point":
        codes = rng.integers(q * q, size=1)
    elif shape == "strip":
        codes = np.array([x * q + y for x, y in _strip(m)])
    elif shape == "full":
        codes = plane
    else:
        codes = plane[rng.random(q * q) < density]
    assert (_overlaps_by_fft(codes, q) == _overlaps_by_pairs(codes, q)).all()


@pytest.mark.parametrize("q", [361, 961])
def test_overlap_sizes_of_2000_random_points_match_the_difference_bincount(q):
    m = Modulus.from_q(q)
    E = random_subset(m, 2, 2000, seed=1).as_array()
    codes = np.unique(E[:, 0] * q + E[:, 1])
    assert len(codes) == 2000
    assert (_overlaps_by_fft(codes, q) == _overlaps_by_pairs(codes, q)).all()
    # two sets: sum_w f(t + w) g(w) counts the pairs (a, b) with a - b = t
    F = random_subset(m, 2, 2000, seed=2).as_array()
    others = np.unique(F[:, 0] * q + F[:, 1])
    assert len(others) == 2000 and not np.array_equal(codes, others)
    got = fourier._correlation(_indicator(codes, q), _indicator(others, q)).ravel()
    assert (got == _overlaps_by_pairs(codes, q, others)).all()


def test_importing_the_package_loads_numpy_fft():
    # numpy loads numpy.fft lazily; the package loads it up front, so that
    # no count pays its first import inside a timed call
    res = subprocess.run(
        [sys.executable, "-c", "import sys, zqgeom; print('numpy.fft' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True\n"


def test_threshold_sets_that_certify_every_orbit_build_no_cut_table(monkeypatch):
    # random:79 at Z_11 certifies every orbit whatever the seed, and so does
    # random:104 at Z_13 with seed 2 (most Z_13 seeds leave an orbit open):
    # the cover returns its certified sum before it packs any tiling
    sets = [(M11, random_subset(M11, 2, 79, seed=seed)) for seed in range(10)]
    sets.append((M13, random_subset(M13, 2, 104, seed=2)))
    want = [len(triangle_classes(m, E)) for m, E in sets]

    def packbits(*args, **kwargs):
        raise AssertionError("the cover built a cut table")

    monkeypatch.setattr(orthogroup.np, "packbits", packbits)
    assert [_cover(m, E) for m, E in sets] == want


def test_certified_orbits_take_no_slice():
    # in Z_103 x {0..66} the least member (0, t) of an orbit fails the
    # certificate for t > 30, but every orbit has a member (x, y) with
    # |y| <= 7 that passes, so the scan and the transform count the set
    m, n = Modulus(103, 1), 103 * 67
    E = [(x, y) for x in range(103) for y in range(67)]
    assert 103 * (67 - 31) + n <= 103**2 < 103 * (67 - 30) + n
    budget = len(orthogroup.so2_table(m)) * 103**2 + 2 * 103**2 * (103).bit_length()
    assert _cover(m, E, budget) == 1082221


def test_cover_tables_are_built_once_and_charged_on_every_call():
    # the second count reads the cached scan, but is charged for it as the
    # first was, so a budget below the scan still refuses it before anything
    # runs
    E, scan = list(random_subset(M13, 2, 102, seed=0)), 12 * 169
    orthogroup._cover_tables.cache_clear()
    assert _cover(M13, E) == _cover(M13, E) == len(triangle_classes(M13, E))
    assert orthogroup._cover_tables.cache_info().misses == 1
    tables = orthogroup._cover_tables(M13)  # least, reps and gains; no transform matrix
    assert len(tables) == 3 and not any(t.flags.writeable for t in tables)
    with pytest.raises(ValueError, match=f": 0 operations spent, and {scan} more"):
        _cover(M13, E, scan - 1)


def test_cover_past_its_budget_hands_off_to_the_census(monkeypatch):
    # the Z_27 strip, with the cover's budget cut to its orbit scan, its
    # transform, one hit mask and one window of 98 digits of 30 bits (of the
    # 6028587 operations it needs): the key count counts it instead
    E = _strip(M27)
    cover, census = orthogroup._cover_count, orthogroup._key_count
    budgets, censuses = [], []
    scan, transform = len(orthogroup.so2_table(M27)) * 27**2, 2 * 27**2 * (27).bit_length()
    digits = -(-4 * 27**2 // sys.int_info.bits_per_digit)

    def low(m, codes, budget):
        budgets.append(budget)
        return cover(m, codes, scan + transform + 2 * digits)

    def counted(m, pts):
        censuses.append(len(pts))
        return census(m, pts)

    monkeypatch.setattr(orthogroup, "_cover_count", low)
    monkeypatch.setattr(orthogroup, "_key_count", counted)
    assert triangle_class_count(M27, E) == 3477
    assert budgets == [243**3] and censuses == [243]


@pytest.mark.parametrize("m", [M9, M11, M25])
def test_difference_blocks_match_the_pair_loop(m):
    E = list(random_subset(m, 2, m.q**2 // 2 + 3, seed=5))
    pts = np.array(E, dtype=np.int64)
    h = np.zeros(m.q**2, dtype=np.int64)
    with mock.patch.object(_census, "_BLOCK_BYTES", 8 * 7 * len(pts)):  # 7 rows a block
        blocks = list(orthogroup._difference_blocks(pts, m.q))
    assert [len(b) for b in blocks[:-1]] == [7] * (len(blocks) - 1)
    for block in blocks:
        h += np.bincount(block.ravel(), minlength=m.q**2)
    assert (h == _difference_histogram_loop(m, E)).all()


def _orbit_reps(m):
    """Least code of each SO_2-orbit of plane vectors."""
    codes = np.arange(m.q**2)
    return np.unique(orthogroup._orbit_min(orthogroup.so2_table(m), codes, m.q)[0])


def _depth(m, code):
    return min(m.valuation(code // m.q), m.valuation(code % m.q))


@pytest.mark.parametrize("q", [7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169])
def test_pair_orbits_by_depth_sum_to_the_orbit_total(q):
    # every pair orbit has exactly one first-difference orbit
    m = Modulus.from_q(q)
    per_depth = orthogroup._pair_orbits_by_depth(m)
    assert sum(per_depth[_depth(m, int(c))] for c in _orbit_reps(m)) == orbit_pair_total(m)


@pytest.mark.parametrize("q", [5, 9, 13, 25, 27, 49])
def test_stabilizers_and_pair_orbits_depend_on_depth_alone(q):
    # Stab(u) = {theta : min(v(a - 1), v(b)) >= l - depth(u)} over the whole
    # plane, and N = the number of Stab(u)-orbits on v, counted directly
    m = Modulus.from_q(q)
    per_k = orthogroup._fix_depths(m)
    sizes = stabilizer_table(m)
    per_depth = orthogroup._pair_orbits_by_depth(m)
    codes = np.arange(q * q)
    for x in range(q):
        for y in range(q):
            j = _depth(m, x * q + y)
            assert sizes[x, y] == sum(per_k[m.l - j :])
    for j in range(m.l + 1):
        stab = orthogroup._fixing(m, m.p**j % q * q)
        orbits = np.unique(orthogroup._orbit_min(stab, codes, q)[0])
        assert len(stab) == sum(per_k[m.l - j :])
        assert len(orbits) == per_depth[j]


def test_group_tables_past_the_byte_budget_are_refused_before_they_are_built():
    # so2_table at q = 2**31 - 1 would hold _SO2_BYTES * q, some 200 GB; the
    # group's callers are refused before anything is allocated, while the t2
    # count of a sparse set needs no group table
    m, E = Modulus(2**31 - 1, 1), [(1, 2), (5, 9), (100, 7)]
    held = orthogroup._SO2_BYTES * m.q
    assert held > _census._CENSUS_BYTES
    calls = [partial(triangle_classes, m, E), partial(stabilizer, m, (1, 2)),
             partial(stabilizer_table, m)]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match=f"SO_2 table of Z_{m.q} would hold {held} bytes, "
                                                 f"over the {2**30}-byte budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert triangle_class_count(m, E) == 16


def test_t2_op_cap_refuses_each_stage_before_it_runs(monkeypatch):
    def count_under(cap, E, m=M13):
        monkeypatch.setattr(_census, "_OP_CAP", cap)
        return triangle_class_count(m, E)

    # below the cover's regime, 50**3 < 13**4 ln(13**2): the n**3 census
    E = list(random_subset(M13, 2, 50, seed=0))
    assert 50**3 < 13**4 * math.log(13**2)
    with pytest.raises(ValueError, match=f"t2 census over n = 50 points: 0 operations spent, "
                                         f"and {50**3} more would pass the {50**3 - 1}-operation "
                                         "budget"):
        count_under(50**3 - 1, E)
    assert count_under(50**3, E) == len(triangle_classes(M13, E))
    # in it: first the orbit scan of |SO_2| q**2 = 12 * 169 vectors, then the
    # two real FFTs, 2 q**2 q.bit_length(), then the digits of the 4 q**2-bit
    # tiling (23 of 30 bits) per hit mask and per window
    E = list(random_subset(M13, 2, 102, seed=0))
    scan, transform, digits = 12 * 169, 2 * 169 * 4, -(-4 * 169 // sys.int_info.bits_per_digit)
    with pytest.raises(ValueError, match=f"n = 102 points: 0 operations spent, and {scan} more "
                                         f"would pass the {scan - 1}-operation budget"):
        count_under(scan - 1, E)
    with pytest.raises(ValueError, match=f"n = 102 points: {scan} operations spent, and "
                                         f"{transform} more would pass the "
                                         f"{scan + transform - 1}-operation budget"):
        count_under(scan + transform - 1, E)
    spent = scan + transform + 3 * digits
    with pytest.raises(ValueError, match=f": {spent} operations spent, and {digits} more "
                                         f"would pass the {spent + 5}-operation budget"):
        count_under(spent + 5, E)
    assert count_under(102**3, E) == len(triangle_classes(M13, E))
    # the Z_27 strip's cover takes 6028587 operations, under n**3: with them
    # it counts the strip, and with fewer, as n**3 passes the cap, the cover
    # is refused where it stopped
    E, cover = _strip(M27), 6028587
    assert count_under(cover, E, M27) == 3477
    with pytest.raises(ValueError) as refused:
        count_under(cover - 1, E, M27)
    spent, step = re.fullmatch(
        f"t2 orbit cover over n = 243 points: (\\d+) operations spent, and (\\d+) more would "
        f"pass the {cover - 1}-operation budget", str(refused.value)
    ).groups()
    assert int(spent) <= cover - 1 < int(spent) + int(step)
    # every orbit of this set has a member passing the certificate, so the
    # scan and the transform count it without a slice
    E = list(random_subset(M13, 2, 104, seed=2))
    assert count_under(scan + transform, E) == 2381
    with pytest.raises(ValueError, match=f": {scan} operations spent, and {transform} more"):
        count_under(scan + transform - 1, E)
    assert count_under(0, itertools.product(range(13), repeat=2)) == 2381


def test_sorted_census_refuses_past_its_byte_budget_before_any_tally(monkeypatch):
    # 584 random points of Z_727^2 pass the n**3 cap (584**3 < 2e8), but
    # their orbit keys would take gigabytes; the refusal comes before any
    # key is formed
    m = Modulus(727, 1)
    pts = random_subset(m, 2, 584, seed=0).as_array()
    assert 584**3 <= _census._OP_CAP

    def no_keys(m, u, v):
        raise AssertionError("the census formed keys before its byte check")

    monkeypatch.setattr(orthogroup, "pair_orbit_keys", no_keys)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n = 584 points .* over the {2**30}-byte budget"):
            triangle_class_count(m, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_census_byte_budget_is_min_of_triples_and_key_pairs(monkeypatch):
    # triangle_classes is refused by the key count's rule at _CLASS_KEY_BYTES
    # a key: the least of the triples, the key space and the pairs of
    # distinct differences (the cases of the key count's own test)
    cases = [
        (Modulus(727, 1), random_subset(Modulus(727, 1), 2, 40, seed=3).as_array(), 40**3),
        (Modulus(11, 1), random_subset(Modulus(11, 1), 2, 30, seed=0).as_array(), 7 * 11**3),
        (Modulus(727, 1), _line(60), 119**2),
    ]
    for m, E, bound in cases:
        n, held = len(E), orthogroup._CLASS_KEY_BYTES * bound
        monkeypatch.setattr(_census, "_CENSUS_BYTES", held - 1)
        with pytest.raises(ValueError, match=f"n = {n} points may hold {held} bytes of orbit keys, "
                                             f"over the {held - 1}-byte budget"):
            triangle_classes(m, E)
        monkeypatch.setattr(_census, "_CENSUS_BYTES", held)
        assert sum(triangle_classes(m, E).values()) == n**3


def _canonical_census(m, pts):
    """triangle_classes by _canonical_pairs over every ordered triple, grouped
    by canonical pair rather than by orbit key."""
    q = m.q
    pairs = [(vsub(m, x, y), vsub(m, y, z)) for x, y, z in itertools.product(pts, repeat=3)]
    u, v = (np.array([a * q + b for a, b in col], dtype=np.int64) for col in zip(*pairs))
    codes = np.unique(u)
    cu, cv = orthogroup._canonical_pairs(m, codes, np.searchsorted(codes, u), v)
    pairs = zip(cu.tolist(), cv.tolist())
    return Counter(TriangleClass(divmod(a, q), divmod(b, q)) for a, b in pairs)


def _keys_split_pairs_like_canonical_pairs(m, E, k, seed):
    """Whether pair_orbit_keys and _canonical_pairs partition alike k realized
    pairs (x - y, y - z) of E at random triples, each beside its image under
    a random rotation."""
    q, rng = m.q, np.random.default_rng(seed)
    x, y, z = np.asarray(E, dtype=np.int64)[rng.integers(0, len(E), size=(3, k))]
    g = orthogroup.so2_table(m)
    a, b = g[rng.integers(0, len(g), k)].T

    def turn(w):
        return np.stack([(a * w[:, 0] - b * w[:, 1]) % q, (b * w[:, 0] + a * w[:, 1]) % q], 1)

    u, v = (x - y) % q, (y - z) % q
    u, v = np.concatenate([u, turn(u)]), np.concatenate([v, turn(v)])
    keys = orthogroup.pair_orbit_keys(m, u, v)
    codes = np.unique(u @ [q, 1])
    cu, cv = orthogroup._canonical_pairs(m, codes, np.searchsorted(codes, u @ [q, 1]), v @ [q, 1])
    return _same_partition(keys, cu * q**2 + cv)


def _odd_prime_powers(top):
    moduli = []
    for q in range(3, top + 1, 2):
        try:
            moduli.append(Modulus.from_q(q))
        except ValueError:
            pass
    return moduli


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_odd_prime_powers(125)), st.integers(0, 2**32), st.integers(0, 2**16))
def test_pair_orbit_keys_partition_realized_pairs_like_canonical_pairs(m, where, seed):
    # triangle_classes groups by key and labels each key once, so the keys
    # are checked against the group scan here, on sparse to dense sets; a
    # split orbit would leave the class totals short of n**3
    E = random_subset(m, 2, 1 + where % m.q**2, seed=seed).as_array()
    assert _keys_split_pairs_like_canonical_pairs(m, E, 1000, seed)
    E = E[:30]
    assert sum(triangle_classes(m, E).values()) == len(E) ** 3


@pytest.mark.parametrize(
    "q, family",
    [(q, family) for family in ("random", "strip", "deep") for q in (625, 727, 729)]
    + [(625, "isotropic")],  # for p = 3 mod 4 _special_set gives the deep set instead
)
def test_triangle_classes_match_the_canonical_census_at_large_q(q, family):
    m = Modulus.from_q(q)
    if family == "random":
        E = random_subset(m, 2, 30, seed=q).as_array()
    else:
        E = _special_set(m, family, q)
    assert _keys_split_pairs_like_canonical_pairs(m, E, 20000, q)
    classes = triangle_classes(m, E)
    assert sum(classes.values()) == len(E) ** 3
    assert classes == _canonical_census(m, E.tolist())
    assert list(classes) == sorted(classes)  # the census's (u, v) order


@pytest.mark.parametrize("enabled", [True, False])
def test_triangle_classes_restores_the_collector(enabled):
    # the dict is built with the cyclic collector paused
    m = Modulus(3, 3)
    E = random_subset(m, 2, 20, seed=1).as_array()
    want = _canonical_census(m, E.tolist())
    try:
        (gc.enable if enabled else gc.disable)()
        assert triangle_classes(m, E) == want
        assert gc.isenabled() == enabled
        with mock.patch.object(orthogroup.TriangleClass, "_make", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                triangle_classes(m, E)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


_HI = st.one_of(st.integers(0, 3), st.integers(0, 2**38 - 1))
_LO = st.one_of(st.sampled_from([0, 1, 2**50 - 1, 2**50, 2**62 - 1]), st.integers(0, 2**62 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_HI, _LO), min_size=1, max_size=40))
@example([(0, 0), (2**38 - 1, 2**62 - 1), (0, 2**62 - 1), (2**38 - 1, 0), (1, 0), (0, 2**50),
          (0, 2**50 - 1), (2**38 - 2, 2**62 - 1), (2**38 - 1, 2**62 - 2), (0, 0)])
def test_wide_keys_sort_and_compare_like_their_pairs(pairs):
    # the (hi, lo) records the wide keys once were, and Python's tuple order,
    # are the oracles: packed keys take 16 bytes, decode exactly, and sort
    # and compare alike
    hi, lo = np.array(pairs, dtype=np.int64).T
    keys = orthogroup._wide_keys(hi, lo)
    assert keys.dtype == orthogroup._WIDE_KEY and keys.itemsize == 16
    real, imag = keys.real.astype(np.int64), keys.imag.astype(np.int64)
    assert (real == keys.real).all() and (imag == keys.imag).all()
    assert np.array_equal(real >> 12, hi) and np.array_equal((real & 4095) << 50 | imag, lo)
    records = np.empty(len(pairs), dtype=[("hi", np.int64), ("lo", np.int64)])
    records["hi"], records["lo"] = hi, lo
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(records, kind="stable"))
    assert (keys[:, None] == keys).tolist() == [[a == b for b in pairs] for a in pairs]
    assert (keys[:, None] < keys).tolist() == [[a < b for b in pairs] for a in pairs]
    assert np.array_equal(_census._merged([keys.copy()]), orthogroup._wide_keys(
        *np.array(sorted(set(pairs)), dtype=np.int64).T))


def test_triangle_classes_past_the_int64_key_space(monkeypatch):
    # at q = 1100009 the key space (6 l + 1) q**3 passes 2**63, so the keys
    # are wide, which the tally must sort and compare as complex numbers
    m, pts = Modulus(1100009, 1), [(1, 2), (5, 9), (100, 7)]
    assert orthogroup._key_dtype(m) == orthogroup._WIDE_KEY
    classes = triangle_classes(m, pts)
    assert len(classes) == triangle_class_count(m, pts) == 16  # 1 + 9 + 6, as in test_cli
    assert classes == _canonical_census(m, pts)
    # records take twice the bytes a key
    held = 2 * orthogroup._CLASS_KEY_BYTES * 27
    monkeypatch.setattr(_census, "_CENSUS_BYTES", held - 1)
    with pytest.raises(ValueError, match=f"n = 3 points may hold {held} bytes of orbit keys"):
        triangle_classes(m, pts)


def test_class_census_holds_at_most_its_bytes_a_class():
    # tallied keys with their counts and pairs, then the canonicalization of
    # one pair a key, stay under _CLASS_KEY_BYTES a class
    m = Modulus(727, 1)
    E = random_subset(m, 2, 60, seed=1).as_array()
    orthogroup.so2_table(m)  # the cached group table is not the census's
    tracemalloc.start()
    try:
        classes = len(orthogroup._class_census(m, E)[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < orthogroup._CLASS_KEY_BYTES * classes
