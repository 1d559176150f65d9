"""The census kit: the block planner at every call site, the streaming merges
against numpy, and the layering that keeps budgets, meters and merges in one
module."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zqgeom import _census, configsets, fourier, geometry, harness, orthogroup
from zqgeom.configsets import PointSet
from zqgeom.harness import random_subset
from zqgeom.ring import Modulus

# distinct small budgets, so that a recorded budget names the one a site read
# and inputs of a few hundred values already take several blocks
_BLOCK, _SCAN, _KERNEL = 1 << 14, 3 << 12, 5 << 10


def test_budgets_keep_their_values():
    budgets = (_census._BLOCK_BYTES, _census._SCAN_BYTES, _census._KERNEL_BYTES,
               _census._FIRST_BLOCK, _census._OP_CAP, _census._CENSUS_BYTES)
    assert budgets == (2**23, 2**22, 2**20, 2**12, 2 * 10**8, 2**30)


@pytest.fixture
def planned(monkeypatch):
    """The small budgets, and each site's planner calls by the function that
    made them: (rows, row bytes, budget, first, the planned slices)."""
    for name, value in zip(("_BLOCK_BYTES", "_SCAN_BYTES", "_KERNEL_BYTES"),
                           (_BLOCK, _SCAN, _KERNEL)):
        monkeypatch.setattr(_census, name, value)
    calls, real = {}, _census._blocks

    def spy(rows, width, budget, itemsize=8, *, first=None, meter=None):
        site = sys._getframe(1).f_code.co_name  # the frame that asked for the first block
        plan = list(real(rows, width, budget, itemsize, first=first))
        calls.setdefault(site, []).append((rows, itemsize * width, budget, first, plan))
        yield from real(rows, width, budget, itemsize, first=first, meter=meter)

    monkeypatch.setattr(_census, "_blocks", spy)
    return calls


def _fixed(rows, row_bytes, budget):
    """The blocks every fixed-step site cut before the planner."""
    step = max(1, budget // row_bytes)
    return [slice(s, min(rows, s + step)) for s in range(0, rows, step)]


def _line(n):
    return np.stack([np.arange(n), np.zeros(n, dtype=np.int64)], axis=1)


M25, M27, M125, M727 = Modulus(5, 2), Modulus(3, 3), Modulus(5, 3), Modulus(727, 1)


def _sites():
    """(site, run, the (rows, row bytes, budget) of each of its calls), each
    row size written out as the site wrote its step before the planner."""
    g27, g125 = orthogroup.so2_table(M27), orthogroup.so2_table(M125)
    a = np.arange(125)
    cases = [
        ("sphere_points", lambda: geometry.sphere_points(M25, 3, 3), [(25, 8 * 25**2, _BLOCK)]),
        ("sphere_points", lambda: geometry.sphere_points(M125, 3, 2), [(125, 8 * 125, _BLOCK)]),
        ("sphere_points", lambda: geometry.sphere_points(M125, 3, 1), [(125, 8, _BLOCK)]),
        ("_pair_blocks", lambda: list(configsets._pair_blocks(a, a, 125, np.add,
                                                             _census._Meter("pairs"))),
         [(125, 8 * 125, _SCAN)]),
        ("_pair_blocks", lambda: list(configsets._pair_blocks(a, a[:9], 125, np.multiply,
                                                             _census._Meter("pairs"))),
         [(125, 8 * 9, _SCAN)]),
        # 2n - 1 distinct differences: the dense table, blocks of rows per difference block
        *(("_key_blocks", lambda n=n: list(orthogroup._key_blocks(M727, _line(n), 32)),
           [(n, 8 * (2 * n - 1), _BLOCK)]) for n in (15, 20)),
    ]
    for g, q in ((g27, 27), (g125, 125)):
        cases += [
            ("_compositions", lambda g=g, q=q: list(harness._compositions(g, q)),
             [(len(g), 4 * len(g), _BLOCK)]),
            ("_orbit_min", lambda g=g, q=q: orthogroup._orbit_min(g, np.arange(q * q), q),
             [(q * q, 8 * len(g), _BLOCK)]),
        ]
    for n in (20, 30):  # past one block of triples, and too many differences for the table
        pts = random_subset(M727, 2, n, seed=n).as_array()
        cases.append(("_key_blocks", lambda pts=pts: list(orthogroup._key_blocks(M727, pts, 32)),
                      [(n, 8 * n * n, _BLOCK)]))
    for n in (40, 200):
        pts = random_subset(M727, 2, n, seed=n).as_array()
        f = fourier.GridFunction.indicator(M27, 2, random_subset(M27, 2, n, seed=n).points)
        cases += [
            ("_difference_blocks", lambda pts=pts: list(orthogroup._difference_blocks(pts, 727)),
             [(n, 8 * n, _BLOCK)]),
            ("_literal_sum", lambda f=f: fourier.forward_naive(f), [(27**2, 16 * n, _KERNEL)]),
        ]
    return cases


@pytest.mark.parametrize("case", range(len(_sites())))
def test_every_fixed_block_site_cuts_the_blocks_it_cut_before(planned, case):
    site, run, want = _sites()[case]
    run()
    got = planned.pop(site)
    assert [call[:4] for call in got] == [(*w, None) for w in want]
    for rows, row_bytes, budget, _, plan in got:
        assert plan == _fixed(rows, row_bytes, budget)
    assert set(planned) <= {"_difference_blocks", "_orbit_min"}  # what the site calls in turn


def _doubled(rows, width, q, chunk):
    """configsets._row_blocks before the planner, without its meter."""
    cap = max(1, chunk // (8 * max(1, width)))
    step, s, out = min(cap, max(1, max(q, 1 << 12) // max(1, width))), 0, []
    while s < rows:
        out.append(slice(s, min(rows, s + step)))
        s, step = out[-1].stop, min(cap, 2 * step)
    return out


@pytest.mark.parametrize("n", [1, 40, 300])
def test_scans_double_their_blocks_as_before(planned, n):
    # below and above the 2**12-value first block
    for m in (M25, Modulus(3, 9)):
        E = PointSet(m, 2, np.random.default_rng(n).integers(0, m.q, (n, 2)).tolist())
        n = len(E)
        configsets.triangle_area_count(E), configsets.dot_product_count(E)
        for site, rows in (("_area_blocks", n * n), ("_dot_blocks", n)):
            (got,) = planned.pop(site)
            assert got[:4] == (rows, 8 * n, _SCAN, m.q)
            assert got[4] == _doubled(rows, n, m.q, _SCAN)


def test_a_metered_plan_charges_each_block_before_it_is_handed_out():
    # three rows of four values fill the cap, below the 2**12-value first block
    meter = _census._Meter("test", budget=25)
    blocks = _census._blocks(10, 4, 8 * 4 * 3, first=1, meter=meter)
    assert (next(blocks), meter.spent) == (slice(0, 3), 12)
    assert (next(blocks), meter.spent) == (slice(3, 6), 24)
    with pytest.raises(_census._OverBudget, match="^test: 24 operations spent, and 12 more "
                                                  "would pass the 25-operation budget$"):
        next(blocks)


_parts = st.lists(st.lists(st.integers(-50, 50), max_size=30), max_size=8)


@settings(max_examples=200, deadline=None)
@given(_parts)
def test_union_is_the_unique_values_of_the_parts(parts):
    arrays = [np.array(p, dtype=np.int64) for p in parts]
    want = np.unique(np.concatenate(arrays)) if arrays else np.empty(0, dtype=np.int64)
    got = _census._union(iter(arrays))
    assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), max_size=30), max_size=8))
@example([list(range(10)), [5]])
def test_union_stops_only_once_full(parts):
    arrays = [np.array(p, dtype=np.int64).reshape(-1, 1) for p in parts]
    read = []

    def feed():
        for a in arrays:
            read.append(a)
            yield a

    got = _census._union(feed(), 10)
    want = np.unique(np.concatenate(read)) if read else np.empty(0, dtype=np.int64)
    assert np.array_equal(got, want)
    assert len(read) == len(arrays) or got.tolist() == list(range(10))
    if parts == [list(range(10)), [5]]:
        assert len(read) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 5)), max_size=30),
                max_size=8))
def test_tally_sums_the_weights_of_each_value(blocks):
    values = [np.array([v for v, _ in b], dtype=np.int64) for b in blocks]
    weights = [np.array([w for _, w in b], dtype=np.int64) for b in blocks]
    starts = np.cumsum([0] + [len(v) for v in values])
    # each entry's global index as its extra, to check that it is one of its key's entries
    tally = _census._tally((v, w, np.arange(s, s + len(v)))
                           for v, w, s in zip(values, weights, starts.tolist()))
    flat = np.concatenate(values) if values else np.empty(0, dtype=np.int64)
    keys, inverse = np.unique(flat, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse, np.concatenate(weights) if weights else sums[:0])
    assert np.array_equal(tally[0], keys) and np.array_equal(tally[1], sums)
    if len(keys):
        assert np.array_equal(flat[tally[2]], keys)


def test_tally_of_scalar_weights_and_no_blocks():
    keys, counts = _census._tally((np.array([[3, 1], [3, 3]]), 2) for _ in range(2))
    assert keys.tolist() == [1, 3] and counts.tolist() == [4, 12]
    keys, counts = _census._tally(iter([]))
    assert keys.dtype == counts.dtype == np.int64 and not len(keys) and not len(counts)


# -- layering -----------------------------------------------------------------

_SRC = Path(_census.__file__).parent
# what the census module alone defines
_BUDGETS = {"_OP_CAP", "_CENSUS_BYTES", "_BLOCK_BYTES", "_SCAN_BYTES", "_FIRST_BLOCK",
            "_KERNEL_BYTES", "_CHUNK_BYTES"}
_KIT = {"_OverBudget", "_Meter", "_blocks", "_int_dtype", "_heads", "_merged", "_merge_counts",
        "_streamed", "_union", "_tally", "_residues"}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))
            if path.stem != "_census"}


def _is_block_step(node):
    """max(1, a // b), the hand-made block step."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max" and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1
            and isinstance(node.args[1], ast.BinOp) and isinstance(node.args[1].op, ast.FloorDiv))


def test_only_the_census_module_defines_budgets_block_steps_meters_and_merges():
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else []
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name} & _KIT
            bad = names & (_BUDGETS | _KIT) or {n for n in names if "CHUNK" in n or "BLOCK" in n}
            found += [(module, name) for name in bad]
            if _is_block_step(node):
                found.append((module, ast.unparse(node)))
    assert found == []


def test_counters_reach_no_private_kit_name_of_orthogroup_or_geometry():
    allowed = {("harness", "orthogroup", "_turn")}  # group maths, not the kit
    # the one reader of caller points, not the kit either
    allowed |= {("configsets", "geometry", "_read_points"), ("fourier", "geometry", "_read_points")}
    found, trees = [], _trees()
    for module in ("configsets", "harness", "fourier"):
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ImportFrom) and node.module in ("orthogroup", "geometry"):
                found += [(module, node.module, a.name) for a in node.names
                          if a.name.startswith("_")]
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("orthogroup", "geometry") and node.attr.startswith("_")):
                found.append((module, node.value.id, node.attr))
    assert set(found) <= allowed
    assert ("harness", "orthogroup", "_turn") in found
