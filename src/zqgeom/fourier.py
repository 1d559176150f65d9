"""Discrete Fourier analysis on the grid Z_q^d.

The forward transform averages against the additive characters,
fhat(m) = q**-d * sum_x chi(-x.m) f(x) with chi(z) = exp(2 pi i z / q),
and inversion carries no normalization factor.  The default path is
numpy's FFT over every axis; the literal sum over the table's support, run
in kernel row blocks of about 1 MiB, is the oracle; they agree within 1e-10.

Tables are immutable, refused past FULL_GRID_CAP points before allocation:
the constructor copies the caller's values into a read-only array, float64
if they are real and complex128 otherwise, and forward keeps the spectrum
for plancherel_gap.  A table with no nonzero imaginary part takes a
half-size real FFT into the front of its spectrum, whose tail is filled in
place from fhat(-m) = conj fhat(m); inverse gives the float64 real inverse
FFT of that half.  Other tables take the complex FFT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np
import numpy.fft  # loaded with the package, so no count pays its 1.4-2.3 ms first import

from . import _census
from .geometry import _read_points
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
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.flags.writeable = False
    return roots


def _float_or_complex(values) -> np.ndarray:
    """A fresh float64 copy of real values, complex128 if any value is complex."""
    vals = np.asarray(values)
    try:
        return np.array(vals, dtype=complex if vals.dtype.kind == "c" else float)
    except TypeError:  # an object array holding a complex value
        return np.array(vals, dtype=complex)


@dataclass(frozen=True, eq=False)
class _Table:
    m: Modulus
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = _census._grid_shape(self.m.q, self.d)
        vals = _float_or_complex(self.values)
        if vals.size != self.m.q**self.d:
            raise ValueError(f"need {self.m.q**self.d} values, got {vals.size}")
        vals = vals.reshape(shape)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, m: Modulus, d: int, vals: np.ndarray, **fields):
        """A table around a fresh array of shape (q,)*d, without the copy."""
        vals.flags.writeable = False
        table = object.__new__(cls)
        for name, value in dict(m=m, d=d, values=vals, **fields).items():
            object.__setattr__(table, name, value)
        return table

    def at(self, v) -> complex:
        return complex(self.values[tuple(_read_points(self.m, self.d, [v])[0])])


class GridFunction(_Table):
    """A table on all of Z_q^d: float64 when its values are real, else complex128."""

    @classmethod
    def indicator(cls, m: Modulus, d: int, points: Iterable) -> "GridFunction":
        vals = np.zeros(_census._grid_shape(m.q, d))
        vals[tuple(_read_points(m, d, points).T)] = 1.0
        return cls._adopt(m, d, vals)

    @classmethod
    def from_counts(cls, m: Modulus, d: int, table: Mapping) -> "GridFunction":
        """The table's values at its keys; a configsets count table gives its nonzero ones."""
        shape, nonzero = _census._grid_shape(m.q, d), getattr(table, "_nonzero", None)
        if getattr(table, "_q", m.q) != m.q:  # a configsets count table records its q
            raise ValueError(f"a count table over Z_{table._q} is not a table over {m}")
        keys, counts = nonzero() if nonzero else (table.keys(), list(table.values()))
        counts = _float_or_complex(counts)
        vals = np.zeros(shape, dtype=counts.dtype)
        vals[tuple(_read_points(m, d, keys).T)] = counts
        return cls._adopt(m, d, vals)

    @cached_property
    def _spectrum(self) -> "SpectrumTable":
        axes, q = tuple(range(self.d)), self.m.q
        vals = np.empty(self.values.shape, dtype=complex)
        if self.d and not (self.values.dtype.kind == "c" and self.values.imag.any()):
            np.fft.rfftn(self.values.real, axes=axes, norm="forward", out=vals[..., : _half(q)])
            _mirror(vals, q)
            return SpectrumTable._adopt(self.m, self.d, vals, hermitian=True)
        vals = np.fft.fftn(self.values, axes=axes, norm="forward", out=vals)  # at d = 0: values
        return SpectrumTable._adopt(self.m, self.d, vals)


@dataclass(frozen=True, eq=False)
class SpectrumTable(_Table):
    """Fourier coefficients indexed by frequency vectors in Z_q^d; hermitian
    marks the spectrum of a real table, fhat(-m) = conj fhat(m), set only by forward."""

    hermitian: bool = field(default=False, init=False)


def _half(q: int) -> int:
    """Last-axis columns that rfftn keeps; q is odd, so none is a Nyquist column."""
    return q // 2 + 1


def _mirror(full: np.ndarray, q: int) -> None:
    """Fill, in place, the tail of a real table's spectrum from the rfftn half
    in its first q//2 + 1 columns: tail column k is the conjugate of column
    q - k at the negated leading index.  Negation fixes index 0 of each
    leading axis and runs 1..q-1 backwards, so one strided slice per corner
    of the leading axes (index 0 or the rest) fills the tail."""
    h = _half(q)
    for corner in itertools.product((False, True), repeat=full.ndim - 1):
        dst = tuple(slice(1, None) if c else slice(0, 1) for c in corner)
        src = tuple(slice(None, 0, -1) if c else slice(0, 1) for c in corner)
        np.conjugate(full[src + (slice(h - 1, 0, -1),)], out=full[dst + (slice(h, None),)])


def forward(f: GridFunction) -> SpectrumTable:
    """The normalized forward transform, as numpy's FFT scaled by q**-d.

    Computed on the first call and kept by f, so repeated calls return the
    same SpectrumTable.
    """
    return f._spectrum


def _literal_sum(t: _Table, roots: np.ndarray) -> np.ndarray:
    """sum_x roots[x.m mod q] t(x) at every m, over the x with t(x) != 0 (a zero term
    adds nothing), in _KERNEL_BYTES row blocks, x.m summed by axis in _int_dtype(d q**2)."""
    q, vals, support = t.m.q, t.values.ravel(), np.flatnonzero(t.values)
    freqs = np.indices(t.values.shape, dtype=_census._int_dtype(t.d * q * q)).reshape(t.d, -1)
    points, out = freqs[:, support], np.empty(vals.shape, dtype=complex)
    for rs in _census._blocks(len(out), len(support), _census._KERNEL_BYTES, 16):
        dots = sum(np.multiply.outer(f[rs], x) for f, x in zip(freqs, points))
        out[rs] = roots[dots % q] @ vals[support]
    return out.reshape(t.values.shape)


def forward_naive(f: GridFunction) -> SpectrumTable:
    """Literal double sum over all frequency/point pairs (the oracle)."""
    out = _literal_sum(f, _roots_of_unity(f.m.q).conj()) / f.m.q**f.d
    return SpectrumTable._adopt(f.m, f.d, out)


def inverse(fhat: SpectrumTable) -> GridFunction:
    """The unnormalized inversion sum, as numpy's inverse FFT without its 1/q**d."""
    q, axes = fhat.m.q, tuple(range(fhat.d))
    if not fhat.hermitian:
        vals = np.fft.ifftn(fhat.values, axes=axes, norm="forward", out=np.empty_like(fhat.values))
        return GridFunction._adopt(fhat.m, fhat.d, vals)
    # irfftn's 1-D transforms in its order, the leading axes in one work array
    half, work = fhat.values[..., : _half(q)], None
    for axis in axes[:-1]:
        half = work = np.fft.ifft(half, axis=axis, norm="forward", out=work)
    return GridFunction._adopt(fhat.m, fhat.d, np.fft.irfft(half, n=q, axis=-1, norm="forward"))


def inverse_naive(fhat: SpectrumTable) -> GridFunction:
    return GridFunction._adopt(fhat.m, fhat.d, _literal_sum(fhat, _roots_of_unity(fhat.m.q)))


def _correlation(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_w f(t + w) g(w) at each t of Z_q^2, for q x q count tables f and g:
    the inverse of fhat * conj(ghat) by real 2-D FFTs in in-place 1-D calls,
    rounded to int64.  Rounding is exact while the float64 error, at most about
    c log2(q**2) 2**-53 |f|_2 |g|_2 for a small c (Higham, Accuracy and Stability
    of Numerical Algorithms, 24.1), stays below 1/2: for indicators, whose
    |f|_2 |g|_2 <= q**2, until q**2 passes 2**40, past any table memory holds."""
    spec = np.fft.rfft(f[None] if g is f else np.stack((f, g)), axis=-1)
    np.fft.fft(spec, axis=-2, out=spec)
    spec = np.multiply(spec[0], spec[-1].conj(), out=spec[0])
    np.fft.ifft(spec, axis=0, out=spec)
    return np.rint(np.fft.irfft(spec, n=f.shape[1], axis=1)).astype(np.int64)


def plancherel_gap(f: GridFunction) -> float:
    """|sum |fhat|^2 - q**-d sum |f|^2|; zero up to roundoff.

    Uses f's kept spectrum, summed over all of it, so a wrong mirrored half
    shows here too.
    """
    fhat = forward(f).values
    lhs = np.vdot(fhat, fhat).real
    rhs = np.vdot(f.values, f.values).real / f.m.q**f.d
    return float(abs(lhs - rhs))
