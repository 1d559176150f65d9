"""Transform identities on small grids: the FFT path against the literal
double sum, round trips, Plancherel, and character sums."""

import itertools

import numpy as np
import pytest

from zqgeom import fourier
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


# the naive transforms hold a q**(2d) kernel, so they run where q**d <= 729;
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
    for fn in (fourier._roots_of_unity, fourier._point_gram):
        fn.cache_clear()
        assert fn.cache_info().maxsize is not None
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29):
        f = GridFunction.indicator(Modulus.from_q(q), 1, [(1,)])
        inverse_naive(forward_naive(f))
    for fn in (fourier._roots_of_unity, fourier._point_gram):
        info = fn.cache_info()
        assert info.misses == 12 and info.currsize <= info.maxsize
