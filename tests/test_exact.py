from fractions import Fraction

import pytest

from expanderlab.errors import (
    BadPrime,
    NotSquareFree,
    SingularMatrix,
)
from expanderlab.exact import (
    ModMatrix,
    PrimeSet,
    RationalMatrix,
    crt_tuple,
    mod_inv,
    mod_mul,
    prime_factors,
    reduce_mod_p,
    square_free_factors,
)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_square_free_factors():
    assert square_free_factors(35) == [5, 7]
    assert square_free_factors(5) == [5]
    with pytest.raises(NotSquareFree):
        square_free_factors(12)
    with pytest.raises(NotSquareFree):
        square_free_factors(1)


def test_rational_matrix_mul_inverse():
    a = RationalMatrix([[1, 3], [0, 1]])
    b = RationalMatrix([[1, 0], [3, 1]])
    ab = a * b
    assert ab.rows == ((Fraction(10), Fraction(3)), (Fraction(3), Fraction(1)))
    assert a * a.inverse() == RationalMatrix.identity(2)
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrix):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_rational_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix([[1]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3], [4, 5, 6]])


def test_denominator_support():
    m = RationalMatrix([[Fraction(1, 6), 0], [0, Fraction(3, 5)]])
    assert m.denominator_support() == {2, 3, 5}
    assert RationalMatrix.identity(2).denominator_support() == set()


def test_prime_set():
    s = PrimeSet([7, 3, 3])
    assert list(s) == [3, 7]
    assert 3 in s and 5 not in s
    with pytest.raises(ValueError):
        PrimeSet([4])


def test_mod_matrix_roundtrip():
    a = ModMatrix([[1, 3], [0, 1]], 5)
    b = ModMatrix([[1, 0], [3, 1]], 5)
    assert mod_mul(a, mod_inv(a)) == ModMatrix.identity(2, 5)
    assert mod_mul(a, b).rows == ((0, 3), (3, 1))
    with pytest.raises(SingularMatrix):
        mod_inv(ModMatrix([[1, 2], [2, 4]], 5))


def test_reduce_mod_p_is_homomorphism():
    a = RationalMatrix([[1, Fraction(1, 3)], [0, 1]])
    b = RationalMatrix([[1, 0], [Fraction(2, 3), 1]])
    p = 7
    assert reduce_mod_p(a * b, p) == mod_mul(reduce_mod_p(a, p), reduce_mod_p(b, p))
    with pytest.raises(BadPrime):
        reduce_mod_p(a, 3)


@pytest.mark.parametrize("q", [4, 9, 1, 0])
def test_reduce_mod_p_refuses_a_modulus_that_is_not_prime(q):
    # Z/qZ is a field only for q prime, and every ModMatrix inverse row reduces over that field
    with pytest.raises(BadPrime, match=f"^reduction mod p needs a prime p, got {q}$"):
        reduce_mod_p(RationalMatrix([[Fraction(1, 3), 0], [0, Fraction(1, 2)]]), q)


def test_the_mod_p_reducer_refuses_a_composite_modulus():
    # det 1, so only the pivot 2, without an inverse mod 4, shows 4 composite: pow's bare ValueError escaped
    with pytest.raises(BadPrime, match="^a residue has no inverse mod 4, so 4 is not prime$"):
        mod_inv(ModMatrix([[2, 1], [1, 1]], 4))
    for p in (1, 0, -3):  # 0 raised ZeroDivisionError
        with pytest.raises(BadPrime, match=f"^a modulus must be at least 2, got {p}$"):
            ModMatrix([[1]], p)


def test_crt_tuple():
    a = RationalMatrix([[1, 3], [0, 1]])
    parts = crt_tuple(a, 35)
    assert [m.p for m in parts] == [5, 7]
    assert parts[0].rows == ((1, 3), (0, 1))
    # 3 = 1/12 * 36, so the mod-5 entry of 1/12 is 3^(-1) = 2
    h = RationalMatrix([[Fraction(1, 12), 0], [0, 12]])
    assert crt_tuple(h, 5)[0].rows[0][0] == pow(12, 3, 5)
