import numpy as np
import pytest

from mesphase.errors import NotPrime, ZeroInverse
from mesphase.modring import ModInt, Prime, half, is_prime, mod_inverse, quarter

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def brute_inverse(a: int, d: int) -> int:
    """Oracle: exhaustive search over residues."""
    for x in range(1, d):
        if (a * x) % d == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {d}")


def test_inverse_known_values():
    assert int(mod_inverse(ModInt(2, Prime(7)))) == 4
    assert int(mod_inverse(ModInt(1, Prime(11)))) == 1
    # frozen from the exhaustive oracle: 4*4 = 16 = 1 mod 5
    assert brute_inverse(4, 5) == 4
    assert int(mod_inverse(ModInt(4, Prime(5)))) == 4


@pytest.mark.parametrize("d", SMALL_PRIMES)
def test_inverse_exhaustive(d):
    p = Prime(d)
    for a in range(1, d):
        inv = mod_inverse(ModInt(a, p))
        assert (a * int(inv)) % d == 1
        assert int(inv) == brute_inverse(a, d)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        mod_inverse(ModInt(0, Prime(5)))


def test_half_quarter_known_values():
    assert int(half(ModInt(1, Prime(3)))) == 2
    assert int(half(ModInt(0, Prime(13)))) == 0
    assert int(quarter(ModInt(1, Prime(7)))) == 2


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_half_quarter_roundtrip(d):
    p = Prime(d)
    for x in range(d):
        assert (2 * int(half(ModInt(x, p)))) % d == x
        assert (4 * int(quarter(ModInt(x, p)))) % d == x


def test_is_prime():
    assert is_prime(7)
    assert not is_prime(9)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_prime_constructor_rejects_two_and_composites():
    with pytest.raises(NotPrime):
        Prime(2)
    with pytest.raises(NotPrime):
        Prime(9)
    with pytest.raises(NotPrime):
        Prime(1)
    assert Prime(3).d == 3


@pytest.mark.parametrize("bad", [7.0, 3.5, "7", None])
def test_prime_refuses_non_integers(bad):
    with pytest.raises(TypeError):
        Prime(bad)


def test_prime_stores_a_python_int():
    d = Prime(np.int64(7)).d
    assert type(d) is int and d == 7
    assert int(ModInt(3, Prime(np.int64(7))).inverse()) == 5


def test_negative_values_normalize():
    p = Prime(7)
    assert ModInt(-2, p).value == 5
    assert ModInt(-2, p) == ModInt(5, p)
    assert int(-ModInt(2, p)) == 5


def test_modint_arithmetic():
    p = Prime(5)
    a, b = ModInt(3, p), ModInt(4, p)
    assert int(a + b) == 2
    assert int(a - b) == 4
    assert int(a * b) == 2
    assert int(a + 4) == 2
    assert int(2 - a) == 4
    assert int(a**3) == 2
    assert int(a**-1) == int(mod_inverse(a))
    with pytest.raises(ValueError):
        a + ModInt(1, Prime(7))
