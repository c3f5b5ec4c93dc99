"""Exact residue arithmetic mod an odd prime d.

All state indices, operator exponents and basis labels in this package are
residues mod d.  Division by 2 and 4 (``half`` / ``quarter``) is multiplication
by the modular inverse, which is why d = 2 is excluded throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import NotPrime, ZeroInverse

__all__ = [
    "Prime",
    "ModInt",
    "is_prime",
    "mod_inverse",
    "half",
    "quarter",
]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (moduli here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class Prime:
    """An odd prime modulus d >= 3; a non-integer such as 7.0 raises TypeError.

    2 is prime but rejected: halving and quartering of exponents need 2 and 4
    to be invertible mod d.
    """

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", operator.index(self.d))
        if self.d == 2:
            raise NotPrime("d=2 is excluded; only odd primes are supported")
        if not is_prime(self.d):
            raise NotPrime(f"d={self.d} is not prime")


@dataclass(frozen=True)
class ModInt:
    """A residue class mod an odd prime.

    Negative inputs are normalized into [0, d) at construction, so -c and
    d - c name the same residue.
    """

    value: int
    modulus: Prime

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.modulus.d)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: "ModInt | int") -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "ModInt | int") -> "ModInt":
        o = self._coerce(other)
        return ModInt(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: "ModInt | int") -> "ModInt":
        o = self._coerce(other)
        return ModInt(self.value - o.value, self.modulus)

    def __rsub__(self, other: int) -> "ModInt":
        return ModInt(other - self.value, self.modulus)

    def __mul__(self, other: "ModInt | int") -> "ModInt":
        o = self._coerce(other)
        return ModInt(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "ModInt":
        return ModInt(-self.value, self.modulus)

    def __pow__(self, exponent: int) -> "ModInt":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return ModInt(pow(self.value, exponent, self.modulus.d), self.modulus)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    # -- division by 2 and 4 ------------------------------------------------

    def inverse(self) -> "ModInt":
        return mod_inverse(self)

    def half(self) -> "ModInt":
        return self * ModInt(2, self.modulus).inverse()

    def quarter(self) -> "ModInt":
        return self * ModInt(4, self.modulus).inverse()


def mod_inverse(a: ModInt) -> ModInt:
    """Multiplicative inverse of a nonzero residue."""
    if a.value == 0:
        raise ZeroInverse(f"0 has no inverse mod {a.modulus.d}")
    return ModInt(pow(a.value, -1, a.modulus.d), a.modulus)


def half(x: ModInt) -> ModInt:
    """The residue y with 2*y = x (mod d)."""
    return x.half()


def quarter(x: ModInt) -> ModInt:
    """The residue y with 4*y = x (mod d)."""
    return x.quarter()
