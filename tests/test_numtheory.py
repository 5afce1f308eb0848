"""Primality by trial division below 2^32 and Legendre symbols."""

import pytest

from overpart.numtheory import is_prime, legendre

from oracles import legendre_by_squares


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
    # the edge of the range 0 <= n < 2^32
    assert is_prime(4294967291)         # the largest prime below 2^32
    assert not is_prime(2**32 - 1)
    for bad in (-1, 2**32):
        with pytest.raises(ValueError):
            is_prime(bad)


def test_legendre_examples():
    assert legendre(3, 7) == -1
    assert legendre(2, 7) == 1
    assert legendre(0, 3) == legendre(14, 7) == 0
    assert legendre(-1, 5) == 1   # -1 is a residue mod primes == 1 (mod 4)
    assert legendre(-1, 7) == -1


def test_legendre_matches_squares():
    flags = sieve(200)
    for p in range(3, 200):
        if flags[p]:
            for a in range(-p, 2 * p):
                assert legendre(a, p) == legendre_by_squares(a, p), (a, p)
