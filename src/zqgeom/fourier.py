"""Discrete Fourier analysis on the grid Z_q^d.

The forward transform averages against the additive characters,
fhat(m) = q**-d * sum_x chi(-x.m) f(x) with chi(z) = exp(2 pi i z / q),
and inversion carries no normalization factor.  The default path is
numpy's FFT over every axis; the literal quadratic sum is kept as the
oracle, and the two must agree to within 1e-10.

Tables are immutable: the constructor copies the caller's values into a
read-only array, so a GridFunction keeps its spectrum after the first
forward and plancherel_gap reuses it.  A table with no nonzero imaginary
part is transformed once, by a half-size real FFT; the other half of its
spectrum follows from fhat(-m) = conj fhat(m), and inverse runs the real
inverse FFT on the same half.  Any other table takes the complex FFT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .ring import Modulus

__all__ = [
    "GridFunction",
    "SpectrumTable",
    "forward",
    "forward_naive",
    "inverse",
    "inverse_naive",
    "plancherel_gap",
]


@lru_cache(maxsize=8)
def _roots_of_unity(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


@lru_cache(maxsize=8)
def _point_gram(q: int, d: int) -> np.ndarray:
    """x.m mod q for every pair of grid points, in row-major point order."""
    coords = np.indices((q,) * d).reshape(d, -1).T
    return (coords @ coords.T) % q


def _grid_index(m: Modulus, d: int, points) -> tuple[np.ndarray, ...]:
    """Per-axis int64 indices, mod q, of points with exactly d integer coordinates."""
    coords = np.asarray(list(points))
    if len(coords) == 0:
        coords = np.empty((0, d), dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != d or coords.dtype.kind not in "iu":
        raise ValueError(f"need integer {d}-dimensional points, got {coords.dtype} {coords.shape}")
    return tuple((coords.astype(np.int64) % m.q).T)


@dataclass(frozen=True, eq=False)
class _Table:
    m: Modulus
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.m.q,) * self.d
        vals = np.array(self.values, dtype=complex)
        if vals.shape != shape:
            if vals.size != self.m.q**self.d:
                raise ValueError(f"need {self.m.q**self.d} values, got {vals.size}")
            vals = vals.reshape(shape)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, m: Modulus, d: int, vals: np.ndarray, **fields):
        """A table around a fresh complex array of shape (q,)*d, without the copy."""
        vals.flags.writeable = False
        table = object.__new__(cls)
        for name, value in dict(m=m, d=d, values=vals, **fields).items():
            object.__setattr__(table, name, value)
        return table

    def at(self, v) -> complex:
        return complex(self.values[tuple(c % self.m.q for c in v)])


class GridFunction(_Table):
    """A complex-valued table on all of Z_q^d."""

    @classmethod
    def indicator(cls, m: Modulus, d: int, points: Iterable) -> "GridFunction":
        vals = np.zeros((m.q,) * d, dtype=complex)
        vals[_grid_index(m, d, points)] = 1.0
        return cls._adopt(m, d, vals)

    @classmethod
    def from_counts(cls, m: Modulus, d: int, table: Mapping) -> "GridFunction":
        vals = np.zeros((m.q,) * d, dtype=complex)
        vals[_grid_index(m, d, table.keys())] = np.array(list(table.values()), dtype=complex)
        return cls._adopt(m, d, vals)

    @cached_property
    def _spectrum(self) -> "SpectrumTable":
        axes = tuple(range(self.d))
        if self.d and not self.values.imag.any():
            vals = _mirror(np.fft.rfftn(self.values.real, axes=axes, norm="forward"), self.m.q)
            return SpectrumTable._adopt(self.m, self.d, vals, hermitian=True)
        vals = np.fft.fftn(self.values, axes=axes, norm="forward")
        return SpectrumTable._adopt(self.m, self.d, vals)


@dataclass(frozen=True, eq=False)
class SpectrumTable(_Table):
    """Fourier coefficients indexed by frequency vectors in Z_q^d.

    hermitian marks the spectrum of a real table, fhat(-m) = conj fhat(m);
    only forward sets it.
    """

    hermitian: bool = field(default=False, init=False)


def _half(q: int) -> int:
    """Last-axis columns that rfftn keeps; q is odd, so none is a Nyquist column."""
    return q // 2 + 1


def _mirror(half: np.ndarray, q: int) -> np.ndarray:
    """The full spectrum of a real table from its rfftn half.

    Column k >= q//2 + 1 is the conjugate of column q - k at the negated
    leading index.  Negation fixes index 0 of each leading axis and runs
    1..q-1 backwards, so one strided slice per corner of the leading axes
    (index 0 or the rest) fills the tail.
    """
    h = half.shape[-1]
    out = np.empty(half.shape[:-1] + (q,), dtype=complex)
    out[..., :h] = half
    for corner in itertools.product((False, True), repeat=half.ndim - 1):
        dst = tuple(slice(1, None) if c else slice(0, 1) for c in corner)
        src = tuple(slice(None, 0, -1) if c else slice(0, 1) for c in corner)
        np.conjugate(half[src + (slice(h - 1, 0, -1),)], out=out[dst + (slice(h, None),)])
    return out


def forward(f: GridFunction) -> SpectrumTable:
    """The normalized forward transform, as numpy's FFT scaled by q**-d.

    Computed on the first call and kept by f, so repeated calls return the
    same SpectrumTable.
    """
    return f._spectrum


def forward_naive(f: GridFunction) -> SpectrumTable:
    """Literal double sum over all frequency/point pairs (the oracle)."""
    q, d = f.m.q, f.d
    kernel = _roots_of_unity(q)[(-_point_gram(q, d)) % q]
    out = kernel @ f.values.reshape(-1) / q**d
    return SpectrumTable(f.m, f.d, out)


def inverse(fhat: SpectrumTable) -> GridFunction:
    """The unnormalized inversion sum, as numpy's inverse FFT without its 1/q**d."""
    axes = tuple(range(fhat.d))
    if fhat.hermitian:
        half = fhat.values[..., : _half(fhat.m.q)]
        vals = np.fft.irfftn(half, s=fhat.values.shape, axes=axes, norm="forward")
        return GridFunction._adopt(fhat.m, fhat.d, vals.astype(complex))
    return GridFunction._adopt(fhat.m, fhat.d, np.fft.ifftn(fhat.values, axes=axes, norm="forward"))


def inverse_naive(fhat: SpectrumTable) -> GridFunction:
    q, d = fhat.m.q, fhat.d
    kernel = _roots_of_unity(q)[_point_gram(q, d)]
    return GridFunction(fhat.m, fhat.d, kernel @ fhat.values.reshape(-1))


def _energy(z: np.ndarray) -> float:
    """sum |z|^2."""
    return float(np.vdot(z, z).real)


def plancherel_gap(f: GridFunction) -> float:
    """|sum |fhat|^2 - q**-d sum |f|^2|; zero up to roundoff.

    Uses f's kept spectrum, summed over all of it, so a wrong mirrored half
    shows here too.
    """
    lhs = _energy(forward(f).values)
    rhs = _energy(f.values) / f.m.q**f.d
    return abs(lhs - rhs)
