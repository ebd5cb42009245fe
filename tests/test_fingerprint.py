"""
The clan rule checked at a point: if S_x S_y = sum_w c_w S_w, then at any
point a, sum_w c_w S_w(a) = S_x(a) S_y(a).  Modulo the prime 2^61 - 1 a
wrong expansion passes at a random point with probability at most its
degree over the prime (Schwartz 1980; Zippel 1979), and the two seeded
points below square that bound.  ``conftest.fingerprint`` gives S_w(a) by
the transition formula, sharing no code with the clan rule or the oracle.
"""

import random

import pytest

from schubert_clans import permutations as P
from schubert_clans import richardson as R

from conftest import FINGERPRINT_PRIME, all_perms, fingerprint, schubert_reference

POINTS = tuple(
    tuple(rng.randrange(FINGERPRINT_PRIME) for _ in range(11))
    for rng in (random.Random(2012), random.Random(2013))
)


def evaluate(poly, point) -> int:
    """A {exponent tuple: int} polynomial at point, modulo the prime."""
    total = 0
    for exps, c in poly.items():
        term = c
        for a, e in zip(point, exps):
            term = term * pow(a, e, FINGERPRINT_PRIME)
        total += term
    return total % FINGERPRINT_PRIME


def agrees(x, y, expansion) -> bool:
    """Both sides of S_x S_y = expansion equal at every point."""
    return all(
        sum(c * fingerprint(w, a) for w, c in expansion.items()) % FINGERPRINT_PRIME
        == fingerprint(x, a) * fingerprint(y, a) % FINGERPRINT_PRIME
        for a in POINTS
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_fingerprint_is_the_reference_polynomial_at_two_points(n):
    for w in all_perms(n):
        for a in POINTS:
            assert fingerprint(w, a) == evaluate(schubert_reference(w, n), a), w


@pytest.mark.parametrize("n", range(2, 9))
def test_clan_rule_agrees_at_two_points_on_every_admissible_pair(n):
    w0 = P.longest(n)
    for p in range(1, n):
        for u, v in R.admissible_pairs(n, p):
            x = P.compose(w0, u)
            assert agrees(x, v, R.special_product(x, v, p)), (p, u, v)


def test_alternating_product_n10_agrees_at_two_points():
    u, v = R.pair_of_clan(tuple("+-"[k % 2] for k in range(10)))
    x = P.compose(P.longest(10), u)
    expansion = R.special_product(x, v, 5)
    assert len(expansion) == 945
    assert agrees(x, v, expansion)
    # one term short, the two sides differ
    assert not agrees(x, v, dict(list(expansion.items())[1:]))
