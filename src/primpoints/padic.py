"""Subfields of a number field whose Galois group holds a d-cycle, found
from p-adic roots with no norm formed (Klüners and Pohst 1997; van Hoeij,
Klüners and Novocin 2013), and rational reconstruction.

L = Q[x]/(m) has degree d, and at a good prime p the modulus m is
irreducible: its cycle type is [d].  Then W = (Z/p^N)[x]/(m) is the
unramified ring whose Frobenius sigma is the d-cycle x, sigma(x), ...,
sigma^(d-1)(x) on the roots of m, and sigma(x) is Newton-lifted from x^p
mod p.  A block of Gal(m) that holds x is a block of <sigma>, so it is
{sigma^(ie)(x)} for some e | d, and L has at most one subfield of each
degree e.  Each is principal: the root sigma^e(x) lies in one orbit of the
stabiliser of x, and the least block holding x and that orbit is the
subfield's.  So these subfields are the proper principal subfields of L.

This module is kept apart from numfield, which imports it: every import
without cached bytecode compiles numfield, the largest module, and that
compile sets the package's peak memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as int_gcd, isqrt

from .exactalg import (
    _p_mulmod,
    _p_powmod,
    _p_table,
    _p_trim,
    _p_xgcd,
    _z_add,
    _z_derivative,
    _z_sub,
)
from .linalg import in_span


def _rational_reconstruction(r: int, modulus: int):
    """The fraction a/b with a = b*r mod modulus, |a| and b at most
    sqrt(modulus / 2) and b prime to modulus, or None (Wang 1981)."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, r % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or int_gcd(t1, modulus) != 1:
        return None
    return Fraction(r1, t1)


def _cyclic_subfield_bases(L, p: int):
    """The basis of every proper subfield of the NumberField L, each in
    nullspace's canonical form, for a good prime p at which the modulus m
    of L has cycle type [d]; None when a candidate is neither proved nor
    ruled out.

    For e = d / k, if the subfield K of degree e exists, then for each j
    c^j Tr_(L/K) theta^j, with c the denominator of m, is an algebraic
    integer whose e conjugates, c^j times the block sums of the roots to
    the j, are at most k B^j, with B the Cauchy bound of the roots
    c theta_i of the monic integral c^(d-1) m(y / c).  Its characteristic
    polynomial is then integral with i-th elementary symmetric function at
    most C(e, i) (k B^j)^i, and p^N exceeds twice the square of every such
    bound with j <= k / 2: a residue past its bound rules K out.  (Taking
    j = 1 alone rules out too little: for m = g(h(x)) with h of degree
    s < k, the sums of the j-th powers of the roots of h(x) - h(theta), for
    j < s, do not depend on theta, so a block made of such root sets has a
    rational sum.)  Otherwise the traces Tr_(L/K) theta^j, j < d, span K;
    their span mod p^N in nullspace's canonical form (_p_echelon), read by
    rational reconstruction, is proved a field of degree e: rank e,
    holding 1 and closed under products.  Being the one subfield of degree
    e, it is the one principal_subfields finds, in the same basis.
    """
    m, d = L.modulus, L.degree
    c = m.den
    B = 1 + max(abs(a) * c ** (d - 1 - i) for i, a in enumerate(m.nums[:-1]))
    blocks = [k for k in range(2, d) if d % k == 0]
    top = max(
        comb(d // k, i) * (k * B ** max(1, k // 2)) ** i for k in blocks for i in range(d // k + 1)
    )
    N = 1
    while p ** N <= 2 * top * top:
        N += 1
    q = p ** N
    mq = [a * pow(c, -1, q) % q for a in m.nums]
    rows = _p_table(mq, q)

    def mul(a, b):
        return _p_mulmod(a, b, rows, q)

    def at(poly, r):
        """poly(r) in W, by Horner."""
        acc = []
        for a in reversed(poly):
            acc = _p_trim(_z_add(mul(acc, r), [a]), q)
        return acc

    # sigma(x) from x^p, and 1 / m'(sigma(x)), each doubling its p-adic
    # precision per step (the inverse from the one of the step before)
    dm = _z_derivative(mq)
    mp = [a % p for a in mq]
    r = _p_powmod([0, 1], p, mp, p)
    _, inv, _ = _p_xgcd(_p_trim(at(dm, r), p), mp, p)
    for _ in range((N - 1).bit_length()):
        r = _p_trim(_z_sub(r, mul(at(mq, r), inv)), q)
        inv = _p_trim(_z_sub(_z_add(inv, inv), mul(mul(at(dm, r), inv), inv)), q)
    # powers[i][j] = sigma^i(x)^j, with sigma^i(x) = sigma^(i-1)(x) at sigma(x)
    conj = [[0, 1], r]
    while len(conj) < d:
        conj.append(at(conj[-1], r))
    powers = [[[1]] for _ in conj]
    for s, row in zip(conj, powers):
        while len(row) < d:
            row.append(mul(row[-1], s))

    def block_sum(b, e, j):
        """The sum of sigma^i(x)^j over the i < d with i = b mod e."""
        total = []
        for i in range(b, d, e):
            total = _z_add(total, powers[i][j])
        total = _p_trim(total, q)
        return total + [0] * (d - len(total))

    bases = []
    for k in blocks:
        e = d // k
        for j in range(1, max(1, k // 2) + 1):
            # the elementary symmetric functions of c^j times the block sums
            sym = [[1]] + [[]] * e
            for b in range(e):
                s = [c ** j * a for a in block_sum(b, e, j)]
                for i in range(e, 0, -1):
                    sym[i] = _p_trim(_z_add(sym[i], mul(s, sym[i - 1])), q)
            if any(len(v) == 1 and min(v[0], q - v[0]) > comb(e, i) * (k * B ** j) ** i
                   for i, v in enumerate(sym)):
                break
        else:
            echelon = _p_echelon([block_sum(0, e, j) for j in range(d)], p, q)
            if echelon is None or len(echelon) != e:
                return None
            basis = [[_rational_reconstruction(a, q) for a in row] for row in echelon]
            if any(None in row for row in basis) or basis[0] != [1] + [0] * (d - 1):
                return None
            span = [L.element(v) for v in basis[1:]]  # basis[0] is 1
            if any(in_span(basis, list((a * b).coeffs)) is None
                   for i, a in enumerate(span) for b in span[i:]):
                return None
            bases.append(basis)
    return bases


def _p_echelon(vectors, p: int, q: int):
    """The span of the int vectors mod q = p^N in nullspace's canonical
    form: each row is 1 at its last nonzero coordinate, where every other
    row is 0, and the rows ascend by that coordinate.  None when a
    coordinate is left with nonzero entries but no unit to pivot on."""
    rest = [list(v) for v in vectors]
    rows = []
    for k in reversed(range(len(rest[0]))):
        pivot = next((v for v in rest if v[k] % p), None)
        if pivot is None:
            if any(v[k] % q for v in rest):
                return None
            continue
        rest.remove(pivot)
        inv = pow(pivot[k], -1, q)
        pivot = [a * inv % q for a in pivot]
        rest = [[(a - v[k] * b) % q for a, b in zip(v, pivot)] for v in rest]
        rows = [[(a - v[k] * b) % q for a, b in zip(v, pivot)] for v in rows]
        rows.append(pivot)
    return rows[::-1]
