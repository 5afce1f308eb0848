"""Primality and Jacobi symbols."""

import random

import pytest

from overpart.numtheory import is_prime, jacobi


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, limit + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def test_is_prime_small():
    flags = sieve(2000)
    for n in range(2001):
        assert is_prime(n) == flags[n], n


def test_is_prime_carmichael_and_pseudoprimes():
    # Carmichael numbers fool Fermat tests; 3215031751 is a strong
    # pseudoprime to bases 2, 3, 5, 7 simultaneously
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751):
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**61 - 1)          # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert not is_prime(2**63)          # boundary value is in range
    for bad in (-1, 2**63 + 1):
        with pytest.raises(ValueError):
            is_prime(bad)


def test_jacobi_examples():
    assert jacobi(3, 7) == -1
    assert jacobi(2, 7) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(6, 9) == 0
    assert jacobi(5, 1) == 1
    assert jacobi(-1, 5) == 1   # -1 is a residue mod primes == 1 (mod 4)
    assert jacobi(-1, 7) == -1


def test_jacobi_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97):
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            legendre = 0 if e == 0 else (1 if e == 1 else -1)
            assert jacobi(a, p) == legendre, (a, p)


def test_jacobi_multiplicative_in_n():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randrange(1, 100, 2)
        n = rng.randrange(1, 100, 2)
        a = rng.randrange(0, 60)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_jacobi_errors():
    for bad_n in (0, -5, 6):
        with pytest.raises(ValueError):
            jacobi(3, bad_n)

