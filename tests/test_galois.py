"""The Frobenius rules of primpoints.galois against brute force on explicit
permutation groups, built with sympy (a test-time oracle only).

Cycle types of group elements stand in for Frobenius readings, fed all at
once and as seeded random subsets in random order, with repeats.  A rule may
say transitive (Musser's test) or primitive only when sympy agrees, Musser's
mask keeps every orbit size, and every cycle type of S_d and of A_d proves
them primitive.  The groups are the transitive groups of degree 4 to 6 and
their point stabilisers, and the wreath products S_a wr S_b of degree 8 to
12.
"""

import random
from itertools import product

import pytest

from primpoints import galois

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.galois import (  # noqa: E402
    S4TransitiveSubgroups,
    S5TransitiveSubgroups,
    S6TransitiveSubgroups,
)
from sympy.utilities.iterables import partitions  # noqa: E402

WREATHS = [(2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3)]


def cycle_type(perm):
    """Ascending cycle lengths of perm, fixed points included."""
    return sorted(k for k, count in perm.cycle_structure.items() for _ in range(count))


def all_partitions(n):
    return [sorted(k for k, c in p.items() for _ in range(c)) for p in partitions(n)]


def transitive_groups():
    for family in (S4TransitiveSubgroups, S5TransitiveSubgroups, S6TransitiveSubgroups):
        for name in family:
            yield name.get_perm_group()


def wreath_product(a, b):
    """S_a wr S_b on the points a*i + j of the blocks i < b."""
    n = a * b
    inside = [Permutation([[0, 1]], size=n), Permutation([list(range(a))], size=n)]
    blocks = [Permutation([[j, a + j] for j in range(a)], size=n)]
    if b > 2:
        blocks.append(Permutation([[a * i + j for i in range(b)] for j in range(a)], size=n))
    return PermutationGroup(inside + blocks)


def wreath_cycle_types(a, b, group):
    """Every cycle type of S_a wr S_b.  An element permutes the blocks by
    sigma, and a cycle of sigma of length l whose cycle product in S_a has
    cycle type lam gives the cycles l * lam; so one element per choice of
    sigma's type and of each cycle product reaches every type.  Each is
    built, checked to lie in group, and read by sympy."""
    n = a * b
    types = set()
    for mu in all_partitions(b):
        for lams in product(all_partitions(a), repeat=len(mu)):
            image = list(range(n))
            start = 0
            for length, lam in zip(mu, lams):
                # the blocks start .. start + length - 1 shift along the cycle
                for i in range(start, start + length):
                    nxt = start + (i - start + 1) % length
                    for j in range(a):
                        image[a * i + j] = a * nxt + j
                # the cycle product: lam on the last block before it wraps
                last, pos = start + length - 1, 0
                within = list(range(a))
                for k in lam:
                    for q in range(k):
                        within[pos + q] = pos + (q + 1) % k
                    pos += k
                for j in range(a):
                    image[a * last + j] = a * start + within[j]
                start += length
            perm = Permutation(image)
            assert group.contains(perm)
            types.add(tuple(cycle_type(perm)))
    return [list(t) for t in sorted(types)]


def subsets(types, rng, count=30):
    """Seeded random readings: up to 20 types, repeats allowed, any order."""
    for _ in range(count):
        yield [rng.choice(types) for _ in range(rng.randint(1, 20))]


def readings(types):
    return list(enumerate(types))


def check_primitivity(types, d, primitive, budget=None):
    proved, cycle = galois._primitive_or_cycle(readings(types), d, budget)
    if proved:
        assert primitive, types
        assert cycle is None
    else:
        read = types[: galois._FROBENIUS_PRIMES if budget is None else budget]
        assert cycle == next((i for i, t in enumerate(read) if t == [d]), None)
    return proved


def check_musser(types, n, orbits):
    sums, read = galois._musser(readings(types), n)
    assert read == readings(types)[: len(read)]
    for size in orbits:
        assert (sums >> size) & 1, (types, orbits)
    assert sums & 1 and (sums >> n) & 1
    if sums == 1 | 1 << n:
        assert len(orbits) == 1, types


def test_transitive_groups_of_degree_4_to_6(monkeypatch):
    rng = random.Random(71)
    groups = list(transitive_groups())
    assert [G.degree for G in groups].count(6) == 16 and len(groups) == 26
    for G in groups:
        d, primitive = G.degree, G.is_primitive()
        assert G.is_transitive()
        types = sorted({tuple(cycle_type(g)) for g in G.generate()})
        types = [list(t) for t in types]
        for sample in [types, *subsets(types, rng)]:
            check_primitivity(sample, d, primitive, budget=len(sample))
            check_musser(sample, d, [d])
            if d == 4:
                first = sample[: galois._QUARTIC_PRIMES]
                assert galois._quartic_primitive(readings(sample)) == ([1, 3] in first)
        # Musser's test over every cycle type, on the group and on the
        # stabiliser of a point, an intransitive group
        monkeypatch.setattr(galois, "_MUSSER_PRIMES", len(types))
        monkeypatch.setattr(galois, "_QUARTIC_PRIMES", len(types))
        check_musser(types, d, [d])
        H = G.stabilizer(0)
        orbits = [len(o) for o in H.orbits()]
        stab_types = [list(t) for t in sorted({tuple(cycle_type(g)) for g in H.generate()})]
        for sample in [stab_types, *subsets(stab_types, rng, 10)]:
            check_musser(sample, d, orbits)
        monkeypatch.undo()


def test_wreath_products_are_never_proved_primitive():
    rng = random.Random(73)
    for a, b in WREATHS:
        G = wreath_product(a, b)
        d = a * b
        assert G.order() == sympy.factorial(a) ** b * sympy.factorial(b)
        assert G.is_transitive() and not G.is_primitive()
        types = wreath_cycle_types(a, b, G)
        for sample in [types, *subsets(types, rng)]:
            assert not check_primitivity(sample, d, False, budget=len(sample))
            check_musser(sample, d, [d])


@pytest.mark.parametrize("d", range(4, 13))
def test_every_cycle_type_of_the_symmetric_and_alternating_groups_proves_them_primitive(
    d, monkeypatch
):
    symmetric = all_partitions(d)
    # an even permutation has an even number of cycles of even length
    alternating = [t for t in symmetric if sum(k % 2 == 0 for k in t) % 2 == 0]
    monkeypatch.setattr(galois, "_MUSSER_PRIMES", len(symmetric))
    monkeypatch.setattr(galois, "_QUARTIC_PRIMES", len(symmetric))
    rng = random.Random(d)
    for types in (symmetric, alternating):
        assert check_primitivity(sorted(types), d, True, budget=len(types))
        # rule (b) alone: the types no cycle of rule (a) is in, in any order;
        # S_4, A_4, A_5, A_6 and A_8 need rule (a)
        silent = [t for t in types if not any(2 * k > d and galois.is_prime(k) for k in t)]
        rng.shuffle(silent)
        proved, _ = galois._primitive_or_cycle(readings(silent), d, len(silent))
        assert proved == (d > 4 and (types is symmetric or d in (7, 9, 10, 11, 12)))
        sums, _ = galois._musser(readings(rng.sample(types, len(types))), d)
        assert sums == 1 | 1 << d
