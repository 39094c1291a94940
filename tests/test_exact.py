from fractions import Fraction

import pytest

from expanderlab.errors import (
    BadPrime,
    NotSquareFree,
    SingularMatrix,
    SizeCapExceeded,
)
from expanderlab.exact import (
    FACTOR_CAP,
    RationalMatrix,
    crt_tuple,
    prime_factors,
    reduce_mod_p,
    row_reduce_mod_p,
    square_free_factors,
)
from oracles import mod_mul


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]
    # past FACTOR_CAP the next divisor is 46,343, so what is left below its square is prime
    assert FACTOR_CAP == 46341
    assert prime_factors(2 * (2**31 - 1)) == [2, 2**31 - 1]
    assert prime_factors(46337 * 46349) == [46337, 46349]
    for n in (46349 * 46351, 2**61 - 1, 3 * (2**61 - 1)):
        with pytest.raises(SizeCapExceeded, match=f"stops at {FACTOR_CAP}"):
            prime_factors(n)


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


def test_reduce_mod_p_is_homomorphism():
    a = RationalMatrix([[1, Fraction(1, 3)], [0, 1]])
    b = RationalMatrix([[1, 0], [Fraction(2, 3), 1]])
    p = 7
    assert reduce_mod_p(a * b, p) == mod_mul(reduce_mod_p(a, p), reduce_mod_p(b, p), p)
    with pytest.raises(BadPrime):
        reduce_mod_p(a, 3)


@pytest.mark.parametrize("q", [4, 9, 1, 0])
def test_reduce_mod_p_refuses_a_modulus_that_is_not_prime(q):
    # a/b mod q needs b invertible, which Z/qZ guarantees only for q prime
    with pytest.raises(BadPrime, match=f"^reduction mod p needs a prime p, got {q}$"):
        reduce_mod_p(RationalMatrix([[Fraction(1, 3), 0], [0, Fraction(1, 2)]]), q)


def test_the_mod_p_reducer_refuses_a_composite_modulus():
    # [a | I] for a of det 1, so only the pivot 2, without an inverse mod 4, shows 4
    # composite: pow's bare ValueError escaped
    with pytest.raises(BadPrime, match="^a residue has no inverse mod 4, so 4 is not prime$"):
        row_reduce_mod_p([[2, 1, 1, 0], [1, 1, 0, 1]], 4)


def test_reduction_refuses_a_matrix_already_reduced():
    # residues mod 7 were read as integers: mod 5 the 6 became 1
    m = reduce_mod_p(RationalMatrix([[1, 3], [0, -1]]), 7)
    assert m == ((1, 3), (0, 6))
    with pytest.raises(TypeError):
        reduce_mod_p(m, 5)
    with pytest.raises(TypeError):
        crt_tuple(m, 35)


def test_crt_tuple():
    a = RationalMatrix([[1, 3], [0, 1]])
    parts = crt_tuple(a, 35)
    assert parts == [((1, 3), (0, 1)), ((1, 3), (0, 1))]
    assert crt_tuple(RationalMatrix([[1, 6], [0, 1]]), 35) == [((1, 1), (0, 1)), ((1, 6), (0, 1))]  # by prime
    # 3 = 1/12 * 36, so the mod-5 entry of 1/12 is 3^(-1) = 2
    h = RationalMatrix([[Fraction(1, 12), 0], [0, 12]])
    assert crt_tuple(h, 5)[0][0][0] == pow(12, 3, 5)
