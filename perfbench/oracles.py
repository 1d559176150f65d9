"""Independent oracles the benchmark checks the program's outputs against.

None of these call zqgeom: they recompute each statistic and bound from
the definitions, by a different route than the library takes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

FFT_TOL = 1e-9  # round trip and Plancherel on the fast path
NAIVE_TOL = 1e-10  # naive oracle against the fast path, as in the test suite


def rotations(q: int) -> tuple[np.ndarray, np.ndarray]:
    """All (a, b) with a^2 + b^2 = 1 mod q, the matrices [[a, -b], [b, a]]."""
    x = np.arange(q, dtype=np.int64)
    a, b = np.nonzero((x[:, None] ** 2 + x[None, :] ** 2) % q == 1)
    return a.astype(np.int64), b.astype(np.int64)


def t2_classes(q: int, pts) -> int:
    """Congruence classes of ordered triples, by marking whole rotation orbits.

    A triple (x, y, z) is labelled by its difference pair (x - y, y - z);
    two triples are congruent when one rotation maps one pair onto the
    other.  Each realized pair not yet seen starts a new class, and its
    whole orbit is marked seen.
    """
    P = np.asarray(pts, dtype=np.int64).reshape(-1, 2)
    D = (P[:, None, :] - P[None, :, :]) % q  # D[i, j] = x_i - x_j
    u = D[:, :, None, :]  # x_i - x_j
    v = D[None, :, :, :]  # x_j - x_k
    keys = ((u[..., 0] * q + u[..., 1]) * q + v[..., 0]) * q + v[..., 1]
    a, b = rotations(q)
    seen: set[int] = set()
    classes = 0
    for key in np.unique(keys).tolist():
        if key in seen:
            continue
        classes += 1
        rest, v1 = divmod(key, q)
        rest, v0 = divmod(rest, q)
        u0, u1 = divmod(rest, q)
        img = (
            (((a * u0 - b * u1) % q * q + (b * u0 + a * u1) % q) * q
             + (a * v0 - b * v1) % q) * q
            + (b * v0 + a * v1) % q
        )
        seen.update(img.tolist())
    return classes


def v2_areas(q: int, pts) -> int:
    """Nonzero det(x - z, y - z) over all ordered vertex triples."""
    P = np.asarray(pts, dtype=np.int64).reshape(-1, 2)
    n = len(P)
    D = (P[:, None, :] - P[None, :, :]) % q  # D[i, k] = x_i - x_k
    seen = np.zeros(q, dtype=bool)
    step = max(1, 2_000_000 // max(1, n * n))
    for k in range(0, n, step):
        d0, d1 = D[:, k : k + step, 0], D[:, k : k + step, 1]
        seen[(d0[:, None, :] * d1[None, :, :] - d1[:, None, :] * d0[None, :, :]) % q] = True
    return int(np.count_nonzero(seen[1:]))


def dot_values(q: int, pts) -> int:
    """Distinct x . y mod q over ordered pairs."""
    P = np.asarray(pts, dtype=np.int64)
    return len(np.unique((P @ P.T) % q))


# -- the documented `random:N` sampler, re-derived --------------------------
# SplitMix64 streams per (seed, trial), then the first k steps of a
# Fisher-Yates shuffle of range(q**d), kept sparse so it costs O(k).

_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def random_points(q: int, d: int, k: int, seed: int, trial: int) -> list[tuple[int, ...]]:
    state = _mix64(seed ^ _mix64(trial + 1))
    n = q**d
    moved: dict[int, int] = {}
    chosen = []
    for i in range(k):
        span = n - i
        limit = ((1 << 64) // span) * span
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            u = _mix64(state)
            if u < limit:
                break
        j = i + u % span
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return [tuple((c // q**e) % q for e in reversed(range(d))) for c in chosen]


STATISTIC = {"t2": t2_classes, "v2": v2_areas, "dotprod": dot_values}


def bound(kind: str, p: int, l: int) -> Fraction:
    """The theorem's lower bound on the statistic, from its statement."""
    q = p**l
    if kind == "t2":
        return Fraction((q**3 + 1) // 2)
    if kind == "v2":
        return Fraction(q * (1 + p), 4 * p) - 1
    return Fraction(q, 2)


def _indicator(q: int, d: int, pts) -> np.ndarray:
    f = np.zeros((q,) * d)
    f[tuple(np.asarray(pts, dtype=np.int64).T)] = 1.0
    return f


def check_transform(q, d, pts, f, fhat, back, gap, seed) -> list[str]:
    errors = []
    if not np.array_equal(f, _indicator(q, d, pts)):
        errors.append("indicator differs from the point set")
    size = q**d
    if abs(fhat[(0,) * d] - len(pts) / size) > 1e-12:
        errors.append(f"fhat(0) = {fhat[(0,) * d]}, expected {len(pts) / size}")
    # a few coefficients by their defining sum over the set
    P = np.asarray(pts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for xi in rng.integers(0, q, size=(4, d)):
        direct = np.exp(-2j * np.pi * ((P @ xi) % q) / q).sum() / size
        if abs(direct - fhat[tuple(xi)]) > FFT_TOL:
            errors.append(f"fhat{tuple(int(c) for c in xi)} off by {abs(direct - fhat[tuple(xi)]):.2e}")
    err = float(np.abs(back - f).max())
    if err > FFT_TOL:
        errors.append(f"inverse(forward(f)) off by {err:.2e}")
    if not gap <= FFT_TOL:
        errors.append(f"Plancherel gap {gap:.2e}")
    return errors


def check_naive(q, d, pts, f, fhat_naive, back_naive, fhat_fast) -> list[str]:
    errors = []
    if not np.array_equal(f, _indicator(q, d, pts)):
        errors.append("indicator differs from the point set")
    err = float(np.abs(np.reshape(fhat_naive, fhat_fast.shape) - fhat_fast).max())
    if err > NAIVE_TOL:
        errors.append(f"forward_naive and forward differ by {err:.2e}")
    err = float(np.abs(np.reshape(back_naive, f.shape) - f).max())
    if err > NAIVE_TOL:
        errors.append(f"inverse_naive(forward_naive(f)) off by {err:.2e}")
    return errors


def check_rotation(q, pts, theta, table, lhs, rhs) -> list[str]:
    a, b = theta
    if (a * a + b * b) % q != 1:
        return [f"({a}, {b}) is not a rotation mod {q}"]
    P = np.asarray(pts, dtype=np.int64)
    rot = np.stack([(a * P[:, 0] - b * P[:, 1]) % q, (b * P[:, 0] + a * P[:, 1]) % q], axis=1)
    t = (P[:, None, :] - rot[None, :, :]) % q
    want = np.bincount((t[..., 0] * q + t[..., 1]).ravel(), minlength=q * q)
    got = np.zeros(q * q, dtype=np.int64)
    for (t0, t1), c in table.items():
        got[t0 * q + t1] = c
    errors = []
    if len(table) != q * q or not np.array_equal(got, want):
        errors.append("rotation correlation table differs from a direct recount")
    counts = [int(c) for c in want]
    if lhs != sum(c**4 for c in counts):
        errors.append(f"moment lhs {lhs} is not sum nu^4")
    if not lhs <= rhs:
        errors.append(f"moment bound fails: {lhs} > {rhs}")
    return errors
