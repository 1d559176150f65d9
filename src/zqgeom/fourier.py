"""Discrete Fourier analysis on the grid Z_q^d.

The forward transform averages against the additive characters,
fhat(m) = q**-d * sum_x chi(-x.m) f(x) with chi(z) = exp(2 pi i z / q),
and inversion carries no normalization factor.  The default path is
numpy's FFT over every axis; the literal quadratic sum is kept as the
oracle, and the two must agree to within 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@dataclass
class _Table:
    m: Modulus
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.m.q,) * self.d
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != shape:
            if vals.size != self.m.q**self.d:
                raise ValueError(f"need {self.m.q**self.d} values, got {vals.size}")
            vals = vals.reshape(shape)
        self.values = vals

    def at(self, v) -> complex:
        return complex(self.values[tuple(c % self.m.q for c in v)])


class GridFunction(_Table):
    """A complex-valued table on all of Z_q^d."""

    @classmethod
    def zeros(cls, m: Modulus, d: int) -> "GridFunction":
        return cls(m, d, np.zeros((m.q,) * d, dtype=complex))

    @classmethod
    def indicator(cls, m: Modulus, d: int, points: Iterable) -> "GridFunction":
        out = cls.zeros(m, d)
        out.values[_grid_index(m, d, points)] = 1.0
        return out

    @classmethod
    def from_counts(cls, m: Modulus, d: int, table: Mapping) -> "GridFunction":
        out = cls.zeros(m, d)
        out.values[_grid_index(m, d, table.keys())] = np.array(list(table.values()), dtype=complex)
        return out


class SpectrumTable(_Table):
    """Fourier coefficients indexed by frequency vectors in Z_q^d."""


def forward(f: GridFunction) -> SpectrumTable:
    """The normalized forward transform, as numpy's FFT scaled by q**-d."""
    return SpectrumTable(f.m, f.d, np.fft.fftn(f.values, norm="forward"))


def forward_naive(f: GridFunction) -> SpectrumTable:
    """Literal double sum over all frequency/point pairs (the oracle)."""
    q, d = f.m.q, f.d
    kernel = _roots_of_unity(q)[(-_point_gram(q, d)) % q]
    out = kernel @ f.values.reshape(-1) / q**d
    return SpectrumTable(f.m, f.d, out)


def inverse(fhat: SpectrumTable) -> GridFunction:
    """The unnormalized inversion sum, as numpy's inverse FFT without its 1/q**d."""
    return GridFunction(fhat.m, fhat.d, np.fft.ifftn(fhat.values, norm="forward"))


def inverse_naive(fhat: SpectrumTable) -> GridFunction:
    q, d = fhat.m.q, fhat.d
    kernel = _roots_of_unity(q)[_point_gram(q, d)]
    return GridFunction(fhat.m, fhat.d, kernel @ fhat.values.reshape(-1))


def plancherel_gap(f: GridFunction) -> float:
    """|sum |fhat|^2 - q**-d sum |f|^2|; zero up to roundoff."""
    fhat = forward(f)
    lhs = float(np.sum(np.abs(fhat.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / f.m.q**f.d
    return abs(lhs - rhs)
