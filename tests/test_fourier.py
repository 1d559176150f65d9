"""Transform identities on small grids: the FFT path against the literal
double sum, round trips, Plancherel, and character sums."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zqgeom import fourier, geometry
from zqgeom.fourier import (
    GridFunction,
    SpectrumTable,
    forward,
    forward_naive,
    inverse,
    inverse_naive,
    plancherel_gap,
)
from zqgeom.harness import SplitMix64, random_subset
from zqgeom.orthogroup import so2_elements
from zqgeom.ring import Modulus

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
M27 = Modulus(3, 3)


def random_grid(m, d, seed):
    """Complex table with entries on [-1, 1] x [-i, i], reproducible."""
    rng = SplitMix64(seed)
    flat = np.array(
        [
            complex(rng.below(2001) / 1000 - 1, rng.below(2001) / 1000 - 1)
            for _ in range(m.q**d)
        ]
    )
    return GridFunction(m, d, flat)


def test_table_shape_handling():
    f = GridFunction(M3, 2, np.arange(9.0))
    assert f.values.shape == (3, 3)
    assert f.at((1, 2)) == 5.0
    assert f.at((4, -1)) == 5.0  # indices reduce mod q
    with pytest.raises(ValueError):
        GridFunction(M3, 2, np.arange(8.0))


def test_indicator_and_from_counts():
    f = GridFunction.indicator(M9, 2, [(1, 0), (10, 0), (0, 3)])
    assert f.values.sum() == 2.0  # duplicates collapse mod q
    g = GridFunction.from_counts(M3, 1, {(0,): 2, (2,): 5})
    assert list(g.values) == [2, 0, 5]


def test_single_point_spectrum_explicit():
    f = GridFunction.indicator(M3, 2, [(1, 0)])
    fhat = forward(f)
    for m1, m2 in itertools.product(range(3), repeat=2):
        expect = np.exp(-2j * np.pi * m1 / 3) / 9
        assert abs(fhat.at((m1, m2)) - expect) < 1e-12


def test_delta_and_constant_spectra():
    delta = GridFunction.indicator(M9, 1, [(0,)])
    assert np.allclose(forward(delta).values, 1 / 9)
    const = GridFunction(M9, 1, np.ones(9))
    chat = forward(const).values
    assert abs(chat[0] - 1) < 1e-12
    assert np.abs(chat[1:]).max() < 1e-12


@pytest.mark.parametrize(
    "m,d", [(M3, 1), (M3, 2), (M9, 1), (M9, 2), (M27, 1), (M27, 2)], ids=str
)
def test_factored_path_matches_literal_sum(m, d):
    f = random_grid(m, d, seed=10 * m.q + d)
    assert np.abs(forward(f).values - forward_naive(f).values).max() < 1e-10
    fhat = forward(f)
    assert np.abs(inverse(fhat).values - inverse_naive(fhat).values).max() < 1e-10


@pytest.mark.parametrize("m,d", [(M9, 2), (M27, 1), (M27, 2)], ids=str)
def test_round_trip_and_plancherel(m, d):
    f = random_grid(m, d, seed=1)
    g = inverse(forward(f))
    scale = 1 + np.abs(f.values).max()
    assert np.abs(g.values - f.values).max() < 1e-9 * scale
    energy = 1 + float(np.sum(np.abs(f.values) ** 2)) / m.q**d
    assert plancherel_gap(f) < 1e-9 * energy


def test_transform_is_linear():
    f, g = random_grid(M9, 2, 2), random_grid(M9, 2, 3)
    combo = GridFunction(M9, 2, 2.0 * f.values - 1j * g.values)
    expect = 2.0 * forward(f).values - 1j * forward(g).values
    assert np.abs(forward(combo).values - expect).max() < 1e-12


@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (9, 1), (9, 2), (27, 1), (27, 2)])
def test_character_orthogonality(q, d):
    pts = np.array(list(itertools.product(range(q), repeat=d)))
    for mvec in pts[1:]:
        s = np.exp(2j * np.pi * ((pts @ mvec) % q) / q).sum()
        assert abs(s) < 1e-6


def test_spectrum_table_round_trips_counts():
    # transform of an indicator, then inversion, recovers the 0/1 table
    E = random_subset(M9, 2, 11, seed=5)
    f = E.indicator()
    back = inverse(forward(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_rotation_twist_shows_up_as_frequency_twist():
    # spot check of the correlation spectrum against the product form
    from zqgeom.configsets import rotation_correlation

    m = M9
    E = random_subset(m, 2, 10, seed=4)
    ehat = forward(E.indicator())
    theta = so2_elements(m)[3]
    nu = GridFunction.from_counts(m, 2, rotation_correlation(E, theta))
    nuhat = forward(nu)
    q = m.q
    for xi in itertools.product(range(q), repeat=2):
        back = theta.transpose().apply(xi)
        rhs = q**2 * ehat.at(xi) * ehat.at((-back[0], -back[1]))
        assert abs(nuhat.at(xi) - rhs) < 1e-10


def test_indicator_and_from_counts_validate_points():
    for bad in ([(1,)], [(1, 2, 3)], [()], [(1, 2), (3,)], [(1.5, 2)]):
        with pytest.raises(ValueError):
            GridFunction.indicator(M9, 2, bad)
        with pytest.raises(ValueError):
            GridFunction.from_counts(M9, 2, {pt: 1 for pt in bad})
    # a one-coordinate point must not fill a whole row of the plane
    with pytest.raises(ValueError):
        GridFunction.indicator(M9, 2, [(4,)])
    f = GridFunction.indicator(M9, 2, iter([(-1, 10), (8, 1), (-10, 27)]))
    assert np.flatnonzero(f.values).tolist() == [8 * 9 + 0, 8 * 9 + 1]
    g = GridFunction.from_counts(M9, 2, {(-1, -1): 3, (20, 2): 4})
    assert g.at((8, 8)) == 3 and g.at((2, 2)) == 4 and g.values.sum() == 7
    for empty in (GridFunction.indicator(M9, 2, []), GridFunction.from_counts(M9, 2, {})):
        assert empty.values.shape == (9, 9) and not empty.values.any()


def _literal_sum(values, q, freqs, sign):
    """sum_x chi(sign * x.m) f(x) at each frequency m, straight from the definition."""
    points = np.indices(values.shape).reshape(values.ndim, -1).T
    chi = np.exp(sign * 2j * np.pi * ((points @ freqs.T) % q) / q)
    return values.reshape(-1) @ chi


@pytest.mark.parametrize("q,d", [(3, 1), (27, 1), (27, 2), (25, 2), (9, 3), (5, 4)])
def test_the_support_sum_is_the_literal_sum(q, d):
    m, rng, shape = Modulus.from_q(q), np.random.default_rng(q + d), (q,) * d
    sparse = np.where(rng.random(shape) < 0.3, rng.uniform(-1, 1, shape), 0.0)
    one = np.zeros(shape)
    one.flat[q**d // 2] = 1.0
    twisted = np.where(sparse != 0, sparse + 1j * rng.uniform(-1, 1, shape), 0)
    freqs = np.indices(shape).reshape(d, -1).T
    for vals in (sparse, rng.uniform(-1, 1, shape), np.zeros(shape), one, twisted):
        for sign in (-1, 1):
            roots = fourier._roots_of_unity(q)
            roots = roots.conj() if sign < 0 else roots
            got = fourier._literal_sum(GridFunction(m, d, vals), roots)
            assert np.abs(got.ravel() - _literal_sum(vals, q, freqs, sign)).max() < 1e-12


# the naive transforms take q**(2d) steps, so they run where q**d <= 729;
# above that, sampled coefficients are checked against the defining sum
_GRIDS = [(q, d) for q in (3, 5, 9, 25, 27) for d in (1, 2, 3, 4)]


@pytest.mark.parametrize("q,d", _GRIDS, ids=lambda v: str(v))
def test_fast_transforms_match_the_literal_sums(q, d):
    m = Modulus.from_q(q)
    rng = np.random.default_rng(100 * q + d)
    shape = (q,) * d
    f = GridFunction(m, d, rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    fhat = forward(f)
    back = inverse(fhat)
    if q**d <= 729:
        assert np.abs(fhat.values - forward_naive(f).values).max() < 1e-10
        assert np.abs(back.values - inverse_naive(fhat).values).max() < 1e-10
    else:
        freqs = rng.integers(0, q, size=(4, d))
        want = _literal_sum(f.values, q, freqs, -1) / q**d
        assert np.abs(fhat.values[tuple(freqs.T)] - want).max() < 1e-10
        want = _literal_sum(fhat.values, q, freqs, 1)
        assert np.abs(back.values[tuple(freqs.T)] - want).max() < 1e-10
    assert np.abs(back.values - f.values).max() < 1e-10


def test_fourier_caches_are_bounded():
    fn = fourier._roots_of_unity
    fn.cache_clear()
    assert fn.cache_info().maxsize is not None
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29):
        f = GridFunction.indicator(Modulus.from_q(q), 1, [(1,)])
        inverse_naive(forward_naive(f))
    info = fn.cache_info()
    assert info.misses == 12 and info.currsize <= info.maxsize


def test_cached_roots_of_unity_are_read_only():
    roots = fourier._roots_of_unity(9)
    with pytest.raises(ValueError):
        roots[1] = 0
    assert fourier._roots_of_unity(9) is roots and roots[1] == np.exp(2j * np.pi / 9)


def _asarray_grid_index(m, d, points):
    """The indicator's old reading of tuples through np.asarray, per axis (the oracle)."""
    points = np.asarray(list(points) or np.empty((0, d), np.int64))
    if points.ndim != 2 or points.shape[1] != d or points.dtype.kind not in "iu":
        raise ValueError("refused")
    return tuple((points.astype(np.int64) % m.q).T)


_COORD = st.one_of(st.integers(-50, 50), st.integers(-2**64, 2**64), st.booleans(),
                   st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=d, max_size=d),
    st.lists(st.booleans(), min_size=d, max_size=d),
    st.lists(_COORD, min_size=max(0, d - 1), max_size=d + 1),
).map(tuple), max_size=6))))
@example((2, [(1, 2), (3,)]))
@example((2, [(1, 2, 3), (4,)]))
@example((2, [(True, False), (False, False)]))
@example((2, [(True, 2)]))
@example((2, [(1.0, 2)]))
@example((2, [(2**63, 1)]))
@example((2, [(-2**63 - 1, 1)]))
@example((2, [(2**63 - 1, -2**63)]))
@example((1, [(2**63,), (2**64 - 1,)]))
@example((0, [()]))
@example((0, []))
def test_tuples_are_read_as_np_asarray_reads_them(case):
    d, points = case
    try:
        want = _asarray_grid_index(M9, d, points)
    except ValueError:
        want = None
    # ints of 2**63 and up alone make a uint64 array, which the old path
    # wrapped to int64, so to wrong indices; they are refused now
    if want is None or np.asarray(points).dtype == np.uint64:
        with pytest.raises(ValueError):
            geometry._read_points(M9, d, points)
    else:
        got = geometry._read_points(M9, d, iter(points)).T
        assert len(got) == d and all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(a.dtype == np.int64 for a in got)


def test_array_points_give_the_same_tables_as_tuples():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        arr = rng.integers(-20, 40, size=(30, d))
        tuples = [tuple(int(c) for c in x) for x in arr]
        assert np.array_equal(
            GridFunction.indicator(M9, d, arr).values, GridFunction.indicator(M9, d, tuples).values
        )
        assert np.array_equal(
            GridFunction.indicator(M9, d, (arr % 9).astype(np.uint16)).values,
            GridFunction.indicator(M9, d, iter(tuples)).values,
        )
    E = random_subset(M27, 2, 40, seed=2)
    assert np.array_equal(E.indicator().values, GridFunction.indicator(M27, 2, E.points).values)
    for bad in (np.ones((3, 3), dtype=np.int64), np.ones(3, dtype=np.int64), np.ones((3, 2)),
                np.array([(1, 2), (3,)], dtype=object), np.empty((0, 3), dtype=np.int64)):
        with pytest.raises(ValueError):
            GridFunction.indicator(M9, 2, bad)
    assert not GridFunction.indicator(M9, 2, np.empty((0, 2), dtype=np.int64)).values.any()


@pytest.mark.parametrize(
    "q,values,dtype",
    [
        (9, [2**63, 2**64 - 1, 2**63 + 7], np.uint64),  # past int64, so no int64 cast
        (729, [-128, -1, 0, 127], np.int8),  # int8 % 729 overflows int8
        (9, [-1, -(2**63), -10], np.int64),
        (729, [255, 0, 200], np.uint8),
    ],
)
def test_array_points_of_every_int_kind_index_their_residues(q, values, dtype):
    m = Modulus.from_q(q)
    got = geometry._read_points(m, 1, np.array([values], dtype=dtype).T)[:, 0]
    assert got.dtype == np.int64 and got.tolist() == [v % q for v in values]
    f = GridFunction.indicator(m, 1, np.array([[values[0]]], dtype=dtype))
    assert np.flatnonzero(f.values).tolist() == [values[0] % q]


# --- immutable tables --------------------------------------------------------


def test_tables_are_read_only():
    f = GridFunction.indicator(M9, 2, [(1, 2)])
    fhat = forward(f)
    for table in (f, fhat, inverse(fhat), GridFunction(M3, 1, [1, 2, 3])):
        with pytest.raises(ValueError):
            table.values[0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.values = np.zeros_like(table.values)


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_callers_array_is_copied(dtype):
    arr = np.arange(27, dtype=dtype).reshape(3, 3, 3) - 13
    f = GridFunction(M3, 3, arr)
    want, want_hat = f.values.copy(), forward_naive(f).values
    arr[...] = 99
    assert np.array_equal(f.values, want)
    assert np.abs(forward(f).values - want_hat).max() < 1e-10


def test_the_spectrum_is_computed_once(monkeypatch):
    calls = []

    def counted(name):
        fft = getattr(np.fft, name)

        def run(*args, **kwargs):
            calls.append(name)
            return fft(*args, **kwargs)

        return run

    for name in ("rfftn", "fftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    real_table = GridFunction.indicator(M27, 2, [(1, 2), (5, 0)])
    complex_table = GridFunction(M9, 2, np.full(81, 1j))
    for f, path in ((real_table, "rfftn"), (complex_table, "fftn")):
        calls.clear()
        assert forward(f) is forward(f)
        assert calls == [path]
        plancherel_gap(f)
        assert calls == [path]


def test_plancherel_gap_sums_the_mirrored_half(monkeypatch):
    mirror = fourier._mirror

    def doubled_tail(full, q):
        mirror(full, q)
        full[..., q // 2 + 1 :] *= 2

    monkeypatch.setattr(fourier, "_mirror", doubled_tail)
    f = GridFunction.indicator(M27, 2, [(1, 2), (5, 0), (7, 7)])
    assert forward(f).hermitian
    assert plancherel_gap(f) > 1e-3


# --- storage width -----------------------------------------------------------


def test_real_values_are_stored_as_float64():
    f = GridFunction.indicator(M27, 2, [(1, 2), (5, 0)])
    assert f.values.dtype == np.float64
    assert inverse(forward(f)).values.dtype == np.float64
    counts = GridFunction.from_counts(M3, 1, {(0,): 2, (2,): -5})
    assert counts.values.dtype == np.float64 and counts.values.tolist() == [2, 0, -5]
    mixed = GridFunction.from_counts(M3, 1, {(0,): Fraction(1, 2), (1,): True, (2,): 2.5})
    assert mixed.values.dtype == np.float64 and mixed.values.tolist() == [0.5, 1, 2.5]
    for real in ([True, False, True], [1, 2, 3], np.arange(3, dtype=np.int8), [0.5, 1, 2],
                 np.arange(3, dtype=np.float32), [Fraction(1, 3), 1, 2]):
        assert GridFunction(M3, 1, real).values.dtype == np.float64
    for cplx in ([1j, 0, 0], np.zeros(3, dtype=complex), [Fraction(1, 2), 1j, 0]):
        assert GridFunction(M3, 1, cplx).values.dtype == np.complex128
    for table in ({(0,): 1j}, {(0,): Fraction(1, 2), (1,): 2 + 0j}):
        assert GridFunction.from_counts(M3, 1, table).values.dtype == np.complex128
    # a complex table with no imaginary part stays complex, yet takes the real path
    z = GridFunction(M27, 2, f.values.astype(complex))
    assert z.values.dtype == np.complex128 and forward(z).hermitian
    assert inverse(forward(z)).values.dtype == np.float64


def _peak_bytes(run) -> int:
    """Peak traced allocation while run() executes, above what was live before."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_real_transforms_stay_within_two_and_a_half_spectra():
    m = Modulus(3, 5)
    f = GridFunction.indicator(m, 2, random_subset(m, 2, 3000, seed=1).points)
    # the kept complex spectrum is one 16 q**d table; the rest is transient
    assert _peak_bytes(lambda: inverse(forward(f))) <= 2.5 * 16 * m.q**2


def test_the_real_inverse_holds_one_work_array_and_its_output():
    m = Modulus(3, 4)
    fhat = forward(_real_table(m, 3, seed=4))
    work, out = 16 * m.q**2 * (m.q // 2 + 1), 8 * m.q**3
    # irfftn held two work arrays at once, work - out = 53 kB more than this
    assert _peak_bytes(lambda: inverse(fhat)) <= work + out + 2**14


def test_naive_transforms_run_in_row_blocks():
    f = GridFunction.indicator(M27, 2, random_subset(M27, 2, 200, seed=1).points)
    fourier._roots_of_unity(27)
    # a whole q**(2d) kernel would be 729**2 * 16 B = 8.5 MB
    assert _peak_bytes(lambda: forward_naive(f)) < 4 * 2**20
    fhat = forward_naive(f)
    assert _peak_bytes(lambda: inverse_naive(fhat)) < 4 * 2**20


# --- the real path against the oracles ---------------------------------------


def _real_table(m, d, seed):
    """Signed fractional values, so neither symmetry nor integrality helps."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-3, 3, (m.q,) * d)
    vals.flat[::5] = np.round(vals.flat[::5])
    return GridFunction(m, d, vals)


def _check_against_oracles(f):
    """forward, inverse and plancherel_gap of f against the complex FFT
    everywhere, and against the literal sums (all of them on grids of at
    most 729 points, sampled coefficients above that)."""
    q, d = f.m.q, f.d
    fhat, scale = forward(f), 1 + np.abs(f.values).max()
    back = inverse(fhat)
    assert np.abs(fhat.values - np.fft.fftn(f.values, norm="forward")).max() < 1e-10 * scale
    if q**d <= 729:
        assert np.abs(fhat.values - forward_naive(f).values).max() < 1e-10 * scale
        assert np.abs(back.values - inverse_naive(fhat).values).max() < 1e-10 * scale
    else:
        freqs = np.random.default_rng(q + d).integers(0, q, size=(4, d))
        want = _literal_sum(f.values, q, freqs, -1) / q**d
        assert np.abs(fhat.values[tuple(freqs.T)] - want).max() < 1e-10 * scale
    assert np.abs(back.values - f.values).max() < 1e-10 * scale
    energy = 1 + float(np.sum(np.abs(f.values) ** 2)) / q**d
    assert plancherel_gap(f) < 1e-12 * energy


@pytest.mark.parametrize("q,d", _GRIDS, ids=lambda v: str(v))
def test_real_tables_take_the_half_size_path(q, d):
    m = Modulus.from_q(q)
    f = _real_table(m, d, seed=7 * q + d)
    assert forward(f).hermitian
    assert not forward(f).values.flags.writeable
    _check_against_oracles(f)
    back = inverse(forward(f))
    assert not back.values.imag.any() and forward(back).hermitian
    _check_against_oracles(back)


@pytest.mark.parametrize("q,d", _GRIDS, ids=lambda v: str(v))
def test_from_counts_and_complex_tables_match_the_oracles(q, d):
    m = Modulus.from_q(q)
    rng = np.random.default_rng(11 * q + d)
    pts = rng.integers(-q, 2 * q, size=(min(40, q**d), d))
    counts = {tuple(int(c) for c in x): float(rng.choice([-2.5, -1, 0.75, 3])) for x in pts}
    g = GridFunction.from_counts(m, d, counts)
    assert forward(g).hermitian
    _check_against_oracles(g)
    shape = (q,) * d
    h = GridFunction(m, d, rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    assert not forward(h).hermitian
    _check_against_oracles(h)


def test_a_tiny_imaginary_part_takes_the_complex_path():
    vals = _real_table(M27, 2, seed=3).values.astype(complex)
    vals[4, 20] += 1e-300j
    f = GridFunction(M27, 2, vals)
    assert not forward(f).hermitian
    _check_against_oracles(f)
    assert np.array_equal(forward(f).values, np.fft.fftn(f.values, norm="forward"))


@pytest.mark.parametrize("q,d", _GRIDS, ids=lambda v: str(v))
def test_transforms_are_bitwise_numpys_n_dimensional_transforms(q, d):
    # the n-D calls the transforms made before they ran per axis into one array
    m, axes, half = Modulus.from_q(q), tuple(range(d)), q // 2 + 1
    real = _real_table(m, d, seed=13 * q + d)
    rhat = forward(real)
    assert np.array_equal(rhat.values[..., :half], np.fft.rfftn(real.values, norm="forward"))
    want = np.fft.irfftn(rhat.values[..., :half], s=real.values.shape, axes=axes, norm="forward")
    assert np.array_equal(inverse(rhat).values, want)
    cplx = GridFunction(m, d, real.values + 1j * real.values[::-1])
    chat = forward(cplx)
    assert not chat.hermitian
    assert np.array_equal(chat.values, np.fft.fftn(cplx.values, norm="forward"))
    assert np.array_equal(inverse(chat).values, np.fft.ifftn(chat.values, norm="forward"))


_SMALL_GRIDS = [(q, d) for q, d in _GRIDS if q**d <= 243]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SMALL_GRIDS).flatmap(
        lambda qd: st.tuples(
            st.just(qd),
            hnp.arrays(
                np.float64,
                (qd[0],) * qd[1],
                elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            ),
        )
    )
)
def test_random_real_tables_match_the_oracles(case):
    (q, d), vals = case
    f = GridFunction(Modulus.from_q(q), d, vals)
    assert forward(f).hermitian
    _check_against_oracles(f)


_REAL_GRIDS = [(3, 1), (27, 1), (81, 1), (3, 2), (9, 2), (25, 2), (3, 3), (5, 3), (9, 3), (3, 4),
               (5, 4)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_REAL_GRIDS).flatmap(
        lambda qd: st.tuples(
            st.just(qd),
            hnp.arrays(
                np.float64,
                (qd[0],) * qd[1],
                elements=st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
            ),
        )
    )
)
def test_real_storage_matches_the_complex_fft(case):
    (q, d), vals = case
    f = GridFunction(Modulus.from_q(q), d, vals)
    want = np.fft.fftn(vals.astype(complex), norm="forward")
    assert f.values.dtype == np.float64
    assert np.abs(forward(f).values - want).max() < 1e-10
    back = inverse(forward(f))
    assert back.values.dtype == np.float64
    assert np.abs(back.values - np.fft.ifftn(want, norm="forward")).max() < 1e-10
