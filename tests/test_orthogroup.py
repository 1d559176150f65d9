"""Rotation group structure, stabilizers, and triangle congruence."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqgeom import orthogroup
from zqgeom.geometry import norm, stratum_of, vadd, vsub
from zqgeom.harness import random_subset
from zqgeom.orthogroup import (
    Rotation,
    TriangleClass,
    canonical_pair,
    congruence_witness,
    rotated_planes,
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


def test_triangle_class_grouping_beyond_int64_code_pairs(monkeypatch):
    # canonical first differences stay small in practice, so switch the
    # canonicalization off: the census is then the raw (x - y, y - z) count,
    # whose codes near q**2 would wrap if packed as u * q**2 + v
    m = Modulus(3, 10)
    monkeypatch.setattr(
        orthogroup, "_canonical_pairs", lambda m, codes, ru, rv: (codes[ru], codes[rv])
    )
    pts = [(0, 0), (1, 1), (59048, 3), (5, 59040), (1, 1)]
    raw = {}
    for x, y, z in itertools.product(pts, repeat=3):
        key = TriangleClass(vsub(m, x, y), vsub(m, y, z))
        raw[key] = raw.get(key, 0) + 1
    assert triangle_classes(m, pts) == raw


def test_triangle_classes_empty_and_non_planar():
    assert triangle_classes(M9, []) == {}
    with pytest.raises(ValueError):
        triangle_classes(M9, [(1, 2, 3)])


@pytest.mark.parametrize("chunk_bytes", [64, 1024, 4096])
def test_triangle_classes_tiny_chunks(monkeypatch, chunk_bytes):
    # tiny blocks force many chunks: sorted merges of several pending parts,
    # dense counts over many middle-vertex chunks (the repeated 2 x 2 square
    # has only 9 distinct differences), chunked canonicalization and group tables
    monkeypatch.setattr(orthogroup, "_CHUNK_BYTES", chunk_bytes)
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


def test_group_caches_are_bounded():
    for fn in (orthogroup.so2_table, so2_elements):
        assert fn.cache_info().maxsize is not None
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29):
        so2_elements(Modulus.from_q(q))
    assert so2_elements.cache_info().currsize <= so2_elements.cache_info().maxsize
    canonical_pair(M9, (1, 2), (3, 4))
    assert canonical_pair.cache_info().currsize == 0


# -- the rotated-plane scan against Rotation.apply --------------------------


@pytest.mark.parametrize("m", [M3, M9, M25], ids=str)
def test_rotated_planes_match_apply(m):
    group = so2_elements(m)
    grid = list(itertools.product(range(m.q), repeat=2))
    seen = 0
    for i, rx, ry in rotated_planes(m):
        assert rx.shape == ry.shape == (m.q, m.q)
        for v in grid:
            assert (int(rx[v]), int(ry[v])) == group[i].apply(v)
        seen += 1
    assert seen == len(group)


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
    # 64-byte chunks send every set with 3 or more distinct differences
    # through the sorted branch of _pair_census
    pts = pts + pts[:repeats]
    chunk = orthogroup._CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    with mock.patch.object(orthogroup, "_CHUNK_BYTES", chunk):
        assert triangle_class_count(m, pts) == len(triangle_classes(m, pts))


def test_triangle_class_count_of_the_full_grid():
    assert triangle_class_count(M3, itertools.product(range(3), repeat=2)) == 21
    assert triangle_class_count(M9, []) == 0
    with pytest.raises(ValueError):
        triangle_class_count(M9, [(1, 2, 3)])
