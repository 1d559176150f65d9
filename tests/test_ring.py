"""Residue arithmetic: canonical reduction, valuations, unit inversion,
and Hensel lifting checked against exhaustive root search."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zqgeom.ring import (
    Modulus,
    NonUnitError,
    NotARootError,
    Polynomial,
    SingularRootError,
    hensel_lift_root,
    is_prime,
)

MODULI = [Modulus(3, 1), Modulus(3, 2), Modulus(3, 3), Modulus(5, 2), Modulus(7, 2)]


def test_modulus_basics():
    m = Modulus(3, 2)
    assert (m.p, m.l, m.q) == (3, 2, 9)
    assert str(m) == "Z_9"
    assert m.reduce(-1) == 8
    assert m.reduce(9) == 0
    assert m.reduce(0) == 0


@pytest.mark.parametrize("p,l", [(4, 1), (2, 3), (9, 1), (1, 1), (3, 0), (-3, 2), (15, 1)])
def test_modulus_rejects_bad_parameters(p, l):
    with pytest.raises(ValueError):
        Modulus(p, l)


def test_modulus_rejects_oversized_power():
    # 3**21 > 2**31
    with pytest.raises(ValueError):
        Modulus(3, 21)
    # refused by size, before trial division of p (sqrt(p) steps) or the power
    for p, l in ((2**61 - 1, 1), (2**31 + 11, 1), (3, 10**8), (3, 10**18), (10**40 + 1, 2)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="2\\*\\*31 cap"):
            Modulus(p, l)
        assert time.perf_counter() - start < 0.1


def test_modulus_from_q():
    m = Modulus.from_q(27)
    assert (m.p, m.l) == (3, 3)
    assert Modulus.from_q(49) == Modulus(7, 2)
    for bad in (1, 8, 12, 45):
        with pytest.raises(ValueError):
            Modulus.from_q(bad)
    # refused by size, not after sqrt(q) trial divisions
    for huge in (3**20, 10**18 + 3, 2**31 + 11):
        with pytest.raises(ValueError, match="2\\*\\*31 cap"):
            Modulus.from_q(huge)


@pytest.mark.parametrize(
    "n,expected",
    [(2, True), (3, True), (4, False), (1, False), (97, True), (91, False), (0, False)],
)
def test_is_prime_small(n, expected):
    assert is_prime(n) == expected


def test_valuation_convention():
    m = Modulus(3, 2)
    assert m.valuation(6) == 1
    assert m.valuation(4) == 0
    # zero sits above every proper power
    assert m.valuation(0) == 2
    # reduction happens before counting factors
    assert m.valuation(9) == 2
    assert m.valuation(-3) == 1
    assert Modulus(5, 3).valuation(50) == 2


def test_is_unit_and_units_listing():
    m = Modulus(3, 2)
    assert [x for x in range(9) if m.is_unit(x)] == [1, 2, 4, 5, 7, 8]
    assert list(m.units()) == [1, 2, 4, 5, 7, 8]


def test_inverse_examples():
    assert Modulus(3, 2).inverse(2) == 5
    assert Modulus(5, 2).inverse(7) == 18
    with pytest.raises(NonUnitError) as err:
        Modulus(3, 2).inverse(3)
    assert err.value.valuation == 1
    with pytest.raises(NonUnitError) as err:
        Modulus(3, 2).inverse(0)
    assert err.value.valuation == 2


@pytest.mark.parametrize("m", MODULI, ids=str)
def test_unit_decomposition_exhaustive(m):
    # every nonzero x factors as p**v * unit with 0 <= v < l
    for x in range(1, m.q):
        v = m.valuation(x)
        u = x // m.p**v
        assert 0 <= v < m.l
        assert m.is_unit(u)
        assert u * m.p**v == x


@pytest.mark.parametrize("m", MODULI, ids=str)
def test_inverse_involution_exhaustive(m):
    for x in m.units():
        inv = m.inverse(x)
        assert (x * inv) % m.q == 1
        assert m.inverse(inv) == x


def test_polynomial_basics():
    f = Polynomial((-2, 0, 1))  # x**2 - 2
    assert f.degree == 2
    assert f(10) == 98
    assert f.eval_mod(10, 49) == 0
    assert f.derivative() == Polynomial((0, 2))
    # trailing zero coefficients are not part of the identity
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial(()).degree == -1
    assert Polynomial((5,)).derivative() == Polynomial(())


def test_hensel_examples():
    assert hensel_lift_root(Polynomial((-2, 0, 1)), 3, Modulus(7, 2)) == 10
    assert hensel_lift_root(Polynomial((8, 0, 1)), 1, Modulus(3, 2)) == 1
    # l = 1 leaves the root alone
    assert hensel_lift_root(Polynomial((-1, 0, 1)), 2, Modulus(3, 1)) == 2


def test_hensel_rejects_bad_start():
    with pytest.raises(NotARootError):
        hensel_lift_root(Polynomial((-2, 0, 1)), 1, Modulus(7, 2))
    # (x - 1)**2 has a vanishing derivative at its root
    with pytest.raises(SingularRootError):
        hensel_lift_root(Polynomial((1, -2, 1)), 1, Modulus(3, 2))


def _roots_above(f, m, r):
    return [x for x in range(m.q) if f.eval_mod(x, m.q) == 0 and x % m.p == r]


@pytest.mark.parametrize("m", [Modulus(3, 3), Modulus(5, 2), Modulus(7, 2)], ids=str)
def test_hensel_matches_exhaustive_search_all_monic_quadratics(m):
    for b in range(m.p):
        for c in range(m.p):
            f = Polynomial((c, b, 1))
            for r in range(m.p):
                if f.eval_mod(r, m.p) != 0:
                    continue
                if (2 * r + b) % m.p == 0:
                    continue
                assert _roots_above(f, m, r) == [hensel_lift_root(f, r, m)]


@given(st.integers(-(10**6), 10**6))
def test_reduce_is_canonical(x):
    m = Modulus(3, 3)
    r = m.reduce(x)
    assert 0 <= r < m.q
    assert (x - r) % m.q == 0


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
def test_hensel_lift_is_a_root_whenever_defined(a, b, c):
    m = Modulus(3, 3)
    f = Polynomial((c, b, a))
    for r in range(m.p):
        if f.eval_mod(r, m.p) != 0 or f.derivative().eval_mod(r, m.p) == 0:
            continue
        root = hensel_lift_root(f, r, m)
        assert f.eval_mod(root, m.q) == 0
        assert root % m.p == r
