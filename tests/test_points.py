"""One reading of caller points: every entry point that takes points from a
caller (PointSet, PointSet.product, the t2 censuses, pair_orbit_keys and
GridFunction.indicator) refuses the same inputs with ValueError and reads
the same residues from the rest.  The oracle below spells the rule out
with Python ints, apart from the reader.  The functions that take one
vector (or one triangle) read it by the same reader, and answer on what it
reads."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zqgeom.configsets import PointSet, restricted_line_count
from zqgeom.fourier import GridFunction, forward
from zqgeom.geometry import DimensionMismatch, Line, _read_points, lines_in_stratum, lines_through, spanned_line
from zqgeom.orthogroup import (
    canonical_pair,
    congruence_witness,
    pair_orbit_keys,
    stabilizer,
    triangle_class_count,
    triangle_classes,
)
from zqgeom.ring import Modulus

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
_INT_KINDS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]

_COORD = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
    st.booleans(),
    st.floats(-1e3, 1e3),
    st.sampled_from(["1", "0"]),
)
# lists of points, mostly planar, some ragged; arrays of every int kind, of
# float64 and of bool, mostly (n, 2), some of another shape
_LISTS = st.lists(st.one_of(
    st.tuples(_COORD, _COORD),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.booleans(), st.booleans()),
    st.lists(st.integers(-50, 50), max_size=3).map(tuple),
), max_size=7)
_ARRAYS = st.sampled_from(_INT_KINDS + [np.float64, np.bool_]).flatmap(lambda dtype: hnp.arrays(
    dtype, st.one_of(st.tuples(st.integers(0, 7), st.just(2)), hnp.array_shapes(max_dims=3, max_side=3))))


def _oracle(points, d: int, q: int):
    """The residue rows the points must read as, or None where they must be refused."""
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] != d or points.dtype.kind not in "iu":
            return None
        return [tuple(int(c) % q for c in row) for row in points.tolist()]
    if any(len(pt) != d for pt in points):
        return None
    coords = [c for pt in points for c in pt]
    if points and all(isinstance(c, bool) for c in coords):
        return None
    if not all(isinstance(c, int) and -(2**63) <= c < 2**63 for c in coords):
        return None
    return [tuple(c % q for c in pt) for pt in points]


def _planar_readings(m: Modulus, points) -> dict:
    """What each planar entry point makes of the points, ValueError or a reading."""
    readings = {}
    entries = {
        "PointSet": lambda: sorted(map(tuple, PointSet(m, 2, points).as_array().tolist())),
        "triangle_class_count": lambda: triangle_class_count(m, points),
        "triangle_classes": lambda: triangle_classes(m, points),
        "pair_orbit_keys": lambda: pair_orbit_keys(m, points, (1, 0)).tolist(),
        "indicator": lambda: sorted(map(tuple, np.argwhere(GridFunction.indicator(m, 2, points).values).tolist())),
    }
    if isinstance(points, np.ndarray) and points.ndim != 2:
        del entries["pair_orbit_keys"]  # it alone reads (..., 2) arrays of any rank
    for name, read in entries.items():
        try:
            readings[name] = read()
        except ValueError:
            readings[name] = ValueError
    return readings


def _factor_readings(m: Modulus, coords) -> dict:
    """What the one-dimensional entry points make of the coordinates."""
    cells = coords[:, None] if isinstance(coords, np.ndarray) else [(c,) for c in coords]
    readings = {}
    entries = {
        "product": lambda: list(PointSet.product(m, coords, 2).base),
        "PointSet": lambda: [c for (c,) in PointSet(m, 1, cells).as_array().tolist()],
        "indicator": lambda: np.flatnonzero(GridFunction.indicator(m, 1, cells).values).tolist(),
    }
    for name, read in entries.items():
        try:
            readings[name] = read()
        except ValueError:
            readings[name] = ValueError
    return readings


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([M9, Modulus(5, 1), Modulus(3, 3)]), st.one_of(_LISTS, _ARRAYS))
@example(M9, [(1.5, 2), (0, 0)])
@example(M9, [("1", 2)])
@example(M9, [(2**70, 1)])
@example(M9, [(2**63, 1)])
@example(M9, [(True, False), (False, True)])
@example(M9, [(True, 2), (3, 4)])
@example(M9, np.array([[1.0, 2.0]]))
@example(M9, np.array([[2**64 - 1, 2**63]], dtype=np.uint64))
@example(M9, np.array([[-128, 127]], dtype=np.int8))
@example(M9, [(1, 2), (3,)])
@example(M9, [])
def test_every_entry_point_reads_or_refuses_the_same_points(m, points):
    want = _oracle(points, 2, m.q)
    got = _planar_readings(m, points)
    if want is None:
        assert all(v is ValueError for v in got.values()), got
    else:
        assert not any(v is ValueError for v in got.values()), got
        assert got["PointSet"] == got["indicator"] == sorted(set(want))
        assert got["triangle_classes"] == triangle_classes(m, want)
        assert got["triangle_class_count"] == len(got["triangle_classes"])
        if "pair_orbit_keys" in got:
            rows = np.array(want, dtype=np.int64).reshape(len(want), 2)
            assert got["pair_orbit_keys"] == pair_orbit_keys(m, rows, np.array([1, 0])).tolist()
    if isinstance(points, np.ndarray) and points.ndim and points.shape[-1] == 2:
        # any rank: the keys of its rows, in its shape
        rows = _oracle(points.reshape(-1, 2), 2, m.q)
        if rows is None:
            with pytest.raises(ValueError):
                pair_orbit_keys(m, points, (1, 0))
        else:
            keys = pair_orbit_keys(m, points, (1, 0))
            assert keys.shape == points.shape[:-1]
            assert keys.ravel().tolist() == pair_orbit_keys(m, rows, (1, 0)).tolist()
    coords = points.ravel() if isinstance(points, np.ndarray) else [c for pt in points for c in pt]
    want = _oracle(coords[:, None] if isinstance(coords, np.ndarray) else [(c,) for c in coords], 1, m.q)
    got = _factor_readings(m, coords)
    if want is None:
        assert all(v is ValueError for v in got.values()), got
    else:
        assert list(got.values()) == [sorted({c for (c,) in want})] * 3, got


@pytest.mark.parametrize("read", [
    lambda: PointSet(M9, 2, [(1.5, 2), (0, 0)]),
    lambda: triangle_class_count(M9, [("1", 2)]),
    lambda: pair_orbit_keys(M9, (1.5, 2), (0, 1)),
    lambda: triangle_class_count(M9, [(2**70, 1)]),
    lambda: PointSet.product(M9, [1.5, 2], 2),
])
def test_points_once_misread_are_refused(read):
    # these read as (1, 2), 1 class, the key of ((1, 2), (0, 1)), an
    # OverflowError and the factor (1, 2) before every entry point shared a reader
    with pytest.raises(ValueError):
        read()


def test_refusals_name_the_dimension_or_the_coordinate():
    for ragged in ([(1, 2), (3,)], np.ones((3, 3), dtype=np.int64), np.ones(4, dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            PointSet(M9, 2, ragged)
    for bad in ([(1.0, 2)], [("1", 2)], [(2**63, 0)], [(True, False)], np.ones((2, 2))):
        with pytest.raises(ValueError) as err:
            PointSet(M9, 2, bad)
        assert not isinstance(err.value, DimensionMismatch)


def test_pair_orbit_keys_read_one_vector_a_list_or_an_array():
    rows = np.array([(1, 2), (3, 4), (10, -1)])
    keys = pair_orbit_keys(M9, rows, (0, 1))
    assert pair_orbit_keys(M9, [(1, 2), (3, 4), (10, -1)], [0, 1]).tolist() == keys.tolist()
    assert [pair_orbit_keys(M9, tuple(r), (0, 1)) for r in rows.tolist()] == keys.tolist()
    assert pair_orbit_keys(M9, (rows % 9).astype(np.uint8), (0, 1)).tolist() == keys.tolist()
    assert pair_orbit_keys(M9, [], (0, 1)).shape == (0,)
    for bad in ((1, 2, 3), np.ones((2, 3), dtype=np.int64), np.array(5), np.ones((2, 2))):
        with pytest.raises(ValueError):
            pair_orbit_keys(M9, bad, (0, 1))


# one caller vector: Python ints small and huge, numpy ints, bools, floats and
# strings, mostly two of them, some of another length; or a numpy array
_NP_INT = st.builds(lambda kind, x: kind(x), st.sampled_from(_INT_KINDS), st.integers(0, 127))
_VEC_COORD = st.one_of(_COORD, _NP_INT)
_VECTORS = st.one_of(
    st.tuples(_VEC_COORD, _VEC_COORD),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    st.lists(_VEC_COORD, max_size=3).map(tuple),
    st.sampled_from(_INT_KINDS + [np.float64, np.bool_]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(1, 3))),
)


def _residues(m: Modulus, points):
    """The residue tuples _read_points reads from points, or None if it refuses them."""
    try:
        return [tuple(r) for r in _read_points(m, 2, points).tolist()]
    except ValueError:
        return None


def _answer(call):
    """What a call returns, or ValueError if it refuses its input."""
    try:
        return call()
    except ValueError:
        return ValueError


def _single_vector_answers(m: Modulus, v, table: GridFunction, E: PointSet) -> dict:
    """Each single-vector entry point's answer on v, ValueError where it refuses."""
    lines = [line for n in range(m.l) for line in lines_in_stratum(m, n)]
    return {
        "spanned_line": _answer(lambda: spanned_line(m, v)),
        "lines_through": _answer(lambda: lines_through(m, v)),
        "Line.__contains__": [v in line for line in lines],
        "stabilizer": _answer(lambda: stabilizer(m, v)),
        "canonical_pair": (_answer(lambda: canonical_pair(m, v, (1, 2))),
                           _answer(lambda: canonical_pair(m, (3, 1), v))),
        "GridFunction.at": _answer(lambda: table.at(v)),
        "SpectrumTable.at": _answer(lambda: forward(table).at(v)),
        "restricted_line_count": [_answer(lambda: restricted_line_count(E, v, i)) for i in range(m.l)],
        "PointSet.__contains__": [v in F for F in (E, PointSet(m, 2, E.as_array()))],
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([M9, Modulus(5, 1), Modulus(3, 3)]), _VECTORS)
@example(M9, (1, 2, 3))
@example(M9, (1.5, 2))
@example(M9, (2.0, 6.0))
@example(M9, ("1", 2))
@example(M9, (2**70, 1))
@example(M9, (True, False))
@example(M9, (True, 2))
@example(M9, (11, -3))
@example(M9, (0, 0))
@example(M9, np.array([2**64 - 1, 7], dtype=np.uint64))
def test_single_vectors_are_refused_or_read_as_the_reader_reads_them(m, v):
    table = GridFunction(m, 2, np.arange(m.q**2) % 7 - 3.0)
    E = PointSet.product(m, [0, 1, 3, m.q - 1], 2)
    # a triangle is read as one array of three points, the rule applied to all six coordinates
    for t1, t2 in [((v, (0, 0), (1, 2)), (v, (2, 1), (0, 0))), (((1, 1), (0, 2), (0, 0)), ((0, 0), v, (1, 1)))]:
        r1, r2 = _residues(m, t1), _residues(m, t2)
        want = ValueError if r1 is None or r2 is None else congruence_witness(m, r1, r2)
        assert _answer(lambda: congruence_witness(m, t1, t2)) == want
    got = _single_vector_answers(m, v, table, E)
    r = (_residues(m, [v]) or [None])[0]
    if r is None:
        falses = {"Line.__contains__", "PointSet.__contains__"}
        for name, answer in got.items():
            flat = list(answer) if isinstance(answer, (list, tuple)) else [answer]
            assert all(a is (False if name in falses else ValueError) for a in flat), (name, answer)
        return
    want = _single_vector_answers(m, r, table, E)
    assert got == want
    # two of the readings by hand
    assert got["Line.__contains__"] == [r in set(line.points())
                                        for n in range(m.l) for line in lines_in_stratum(m, n)]
    assert got["GridFunction.at"] == table.values[r]


_MISREAD = {
    "stabilizer-3-vector": (lambda: stabilizer(M9, (1, 2, 3)), DimensionMismatch),
    "lines_through-3-vector": (lambda: lines_through(M9, (1, 0, 0)), DimensionMismatch),
    "lines_through-float": (lambda: lines_through(M9, (1.5, 0)), ValueError),
    "restricted_line_count-float": (
        lambda: restricted_line_count(PointSet.product(M9, [0, 1, 2], 2), (1.5, 1), 0), ValueError),
    "canonical_pair-float": (lambda: canonical_pair(M9, (1.5, 2), (0, 1)), ValueError),
    "at-float": (lambda: GridFunction.indicator(M9, 2, [(1, 2)]).at((1.5, 2)), ValueError),
    "stabilizer-float": (lambda: stabilizer(M9, (1.5, 2)), ValueError),
    "spanned_line-float": (lambda: spanned_line(M9, (1.5, 2)), ValueError),
    "at-string": (lambda: GridFunction.indicator(M9, 2, [(1, 2)]).at(("1", 2)), ValueError),
    "congruence_witness-float": (
        lambda: congruence_witness(M9, ((0, 0), (1.0, 0), (0, 1)), ((0, 0), (1, 0), (0, 1))), ValueError),
    "congruence_witness-2-vertices": (
        lambda: congruence_witness(M9, ((0, 0), (1, 0)), ((0, 0), (1, 0))), ValueError),
    "congruence_witness-4-vertices": (
        lambda: congruence_witness(M9, ((0, 0), (1, 0), (0, 1), (5, 5)), ((0, 0), (1, 0), (0, 1), (2, 2))),
        ValueError),
}


@pytest.mark.parametrize("call, refusal", _MISREAD.values(), ids=_MISREAD.keys())
def test_single_vectors_once_misread_are_refused(call, refusal):
    # these returned the identity, (), (), 0 and a pair of floats, raised
    # IndexError, IndexError, TypeError and TypeError, and found a rotation
    # for a float vertex and for two triangles of 2 and of 4 vertices
    with pytest.raises(refusal):
        call()


def test_vectors_of_floats_lie_on_no_line_and_in_no_set():
    # both were True, the floats hashing and reducing like ints
    assert (2.0, 6.0) not in Line(M9, (1, 3), 0)
    assert (2.0, 6.0) not in PointSet(M9, 2, [(2, 6)])
    assert (2, 6) in Line(M9, (1, 3), 0) and (2, 6) in PointSet(M9, 2, [(2, 6)])


def test_lines_and_sets_read_members_as_their_constructors_do():
    # the set answered False, though PointSet(M9, 2, [(11, 6)]) is this set
    assert PointSet(M9, 2, [(11, 6)]) == PointSet(M9, 2, [(2, 6)])
    assert (11, 6) in Line(M9, (1, 3), 0) and (11, 6) in PointSet(M9, 2, [(2, 6)])
    assert (11, -3) in PointSet.product(M9, (2, 6), 2) and (9, 0) in PointSet.full_grid(M9, 2)


@pytest.mark.parametrize("lazy", [
    lambda: PointSet.product(M9, (0, 2, 5), 2),
    lambda: PointSet.full_grid(M3, 2),
], ids=["product", "full_grid"])
def test_listed_and_lazy_sets_compare_by_their_points(lazy):
    lazy = lazy()
    rows = [tuple(r) for r in lazy.as_array().tolist()]
    listed = PointSet(lazy.m, 2, rows[::-1])
    assert listed.base is None
    assert listed == lazy and lazy == listed and hash(listed) == hash(lazy)
    if lazy.base != tuple(range(lazy.m.q)):
        # the same size, but one row leaves A
        outside = PointSet(lazy.m, 2, rows[:-1] + [(5, 7)])
        assert outside != lazy and lazy != outside
    # a full grid's base is all of Z_q, so a set of its size has no row outside it;
    # one row fewer makes the sizes differ
    fewer = PointSet(lazy.m, 2, rows[1:])
    assert fewer != lazy and lazy != fewer
