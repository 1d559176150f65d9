"""Exact arithmetic in Z_q for an odd prime power q = p**l.

Residues are plain ints kept canonical in [0, q); a `Modulus` value
carries (p, l, q) together with the element-level helpers (canonical
reduction, p-adic valuation, unit inversion).  Rings of this shape have
zero divisors, so inversion can fail; `NonUnitError` reports the
offending valuation.  `hensel_lift_root` lifts a simple root of an
integer polynomial mod p to the unique root mod p**l sitting above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "MAX_Q",
    "Modulus",
    "NonUnitError",
    "NotARootError",
    "Polynomial",
    "SingularRootError",
    "hensel_lift_root",
    "is_prime",
]

# q**2 must stay inside int64 so vectorized pair enumeration cannot overflow
MAX_Q = 2**31


class NonUnitError(ArithmeticError):
    """Inversion was requested for an element divisible by p."""

    def __init__(self, value: int, valuation: int):
        super().__init__(f"{value} is not invertible (p-adic valuation {valuation})")
        self.value = value
        self.valuation = valuation


class NotARootError(ValueError):
    """The starting value is not a root of the polynomial mod p."""


class SingularRootError(ValueError):
    """The starting root has zero derivative mod p, so unique lifting fails."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; plenty at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """An odd prime power modulus q = p**l."""

    p: int
    l: int
    q: int = field(init=False)

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError(f"exponent must be at least 1, got {self.l}")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"base must be an odd prime, got {self.p}")
        q = self.p**self.l
        if q > MAX_Q:
            raise ValueError(f"q = {self.p}**{self.l} exceeds the 2**31 cap")
        object.__setattr__(self, "q", q)

    @classmethod
    def from_q(cls, q: int) -> "Modulus":
        """Recover (p, l) from a prime power q."""
        if q < 3:
            raise ValueError(f"modulus {q} is not an odd prime power")
        if q > MAX_Q:  # before trial division, which would run for sqrt(q) steps
            raise ValueError(f"modulus {q} exceeds the 2**31 cap")
        p = 3
        while p * p <= q:
            if q % p == 0:
                break
            p += 2
        else:
            p = q
        l, rest = 0, q
        while rest % p == 0:
            rest //= p
            l += 1
        if rest != 1:
            raise ValueError(f"modulus {q} is not a power of the single prime {p}")
        return cls(p, l)

    def __str__(self) -> str:
        return f"Z_{self.q}"

    def reduce(self, x: int) -> int:
        return x % self.q

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def valuation(self, x: int) -> int:
        """Largest i with p**i dividing x, capped at l; valuation(0) = l."""
        x %= self.q
        if x == 0:
            return self.l
        i = 0
        while x % self.p == 0:
            x //= self.p
            i += 1
        return i

    def inverse(self, x: int) -> int:
        """Multiplicative inverse of a unit."""
        x %= self.q
        if x % self.p == 0:
            raise NonUnitError(x, self.valuation(x))
        return pow(x, -1, self.q)

    def units(self) -> list[int]:
        """All units of Z_q, ascending."""
        return [x for x in range(1, self.q) if x % self.p != 0]


class Polynomial:
    """Integer polynomial, coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % n
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


def hensel_lift_root(f: Polynomial, r: int, m: Modulus) -> int:
    """Lift a simple root of f mod p to the unique root mod p**l above it.

    The inductive step solves a linear congruence mod p: writing the
    current root as exact mod p**k, the correction t with
    f(root + t*p**k) = 0 mod p**(k+1) is -(f(root)/p**k) / f'(root).
    Evaluation happens over the integers, so the divisions are exact.
    """
    p = m.p
    r %= p
    if f.eval_mod(r, p) != 0:
        raise NotARootError(f"{r} is not a root of {f} mod {p}")
    slope = f.derivative().eval_mod(r, p)
    if slope == 0:
        raise SingularRootError(f"derivative of {f} vanishes at {r} mod {p}")
    slope_inv = pow(slope, -1, p)
    root, pk = r, p
    for _ in range(m.l - 1):
        t = (-(f(root) // pk) * slope_inv) % p
        root += t * pk
        pk *= p
    return root % m.q
