"""What Frobenius cycle types prove about a Galois group, and the primes.

At a good prime p of an integer polynomial f of degree n (p does not divide
lc(f), and f mod p is squarefree of full degree), the ascending degrees of
the irreducible factors of f mod p are the cycle type of a Frobenius
element of G = Gal(f) on the roots.  exactalg._cycle_types yields such
readings (p, cycle type) lazily in increasing p; the rules here read them
as plain data, each up to the first reading that settles it and within its
budget.  The leaf of the package, so it holds the one primality test.
"""

from __future__ import annotations

from itertools import count, islice

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # no prime factor up to 37
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes below 512, which cycle-type reads walk without a primality
# test; a fixed table, so nothing grows with the reads
_SMALL_PRIMES = tuple(q for q in range(2, 512) if is_prime(q))


def _primes():
    """The primes in increasing order: the table, then is_prime past it."""
    yield from _SMALL_PRIMES
    yield from filter(is_prime, count(_SMALL_PRIMES[-1] + 2, 2))


# Each reading costs one DDF, and an exact fallback decides what a budget
# leaves open, so no budget changes a result.  Musser's test: an open
# polynomial is split, Hensel-lifted and recombined at its best prime.
_MUSSER_PRIMES = 3
# a quartic's DDFs are cheap, and they also decide A4 and S4 (_quartic_primitive)
_QUARTIC_PRIMES = 5
# primitivity before principal subfields run, and the [d] of the p-adic
# route: a stream-sextic fiber is proved primitive at its 19th good prime
_FROBENIUS_PRIMES = 20


def _subset_sums(degrees) -> int:
    """The subset sums of degrees as a bit mask (bit k: some sum to k)."""
    sums = 1
    for k in degrees:
        sums |= sums << k
    return sums


def _musser(readings, n: int, step: int = 1):
    """Musser's degree test (1978) on a squarefree polynomial of degree n:
    (sums, read), read the readings taken and sums the bit mask of the
    degrees a factor over Z may have, each a subset sum of every cycle type
    and a multiple of step, which the caller knows.  It reads the first
    _MUSSER_PRIMES readings (_QUARTIC_PRIMES at n = 4) and stops when only
    0 and n are left: then the polynomial is irreducible (G is transitive).
    """
    sums = sum(1 << k for k in range(0, n + 1, step))
    read = []
    for reading in islice(readings, _QUARTIC_PRIMES if n == 4 else _MUSSER_PRIMES):
        read.append(reading)
        sums &= _subset_sums(reading[1])
        if sums == 1 | 1 << n:
            break
    return sums, read


def _primitive_or_cycle(readings, d: int, budget=None):
    """(True, None) when the first budget (_FROBENIUS_PRIMES) readings of
    an irreducible polynomial of degree d prove G primitive, read up to the
    one that does; otherwise (False, p), p the first [d] prime or None.

    G is transitive, and it is primitive when
    (a) one cycle type has a cycle of prime length k > d/2: the other
        cycles are shorter, so a power of the element is a k-cycle, which
        must fix each of at most d/2 blocks and so lie inside one block of
        size at most d/2 < k; or
    (b) Musser's test proves the stabiliser of a root transitive on the
        other d - 1 roots, so that G is 2-transitive: conjugated to fix the
        same root, the elements with a fixed point lie in its stabiliser,
        whose orbit sizes are subset sums of their other cycles.
    """
    stabiliser = (1 << d) - 1
    cycle = None
    for p, degrees in islice(readings, _FROBENIUS_PRIMES if budget is None else budget):
        if 2 * degrees[-1] > d and is_prime(degrees[-1]):  # the one cycle above d/2
            return True, None
        if degrees[0] == 1:
            stabiliser &= _subset_sums(degrees[1:])
            if stabiliser == 1 | 1 << (d - 1):
                return True, None
        if cycle is None and degrees == [d]:
            cycle = p
    return False, cycle


def _quartic_primitive(readings) -> bool:
    """Whether an irreducible quartic's first _QUARTIC_PRIMES readings prove
    G primitive.  Only a [1, 3] can: it is rule (a), and under rule (b) the
    stabiliser sums of [1, 1, 1, 1] and [1, 1, 2] both keep 1 and 2."""
    return _primitive_or_cycle(readings, 4, _QUARTIC_PRIMES)[0]
