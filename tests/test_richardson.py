import functools
import random

import pytest

from schubert_clans import clans as C
from schubert_clans import oracle as O
from schubert_clans import permutations as P
from schubert_clans import richardson as R

from conftest import all_perms, avoids_1212_pairwise, bruhat_leq_rank, inversions, word_to_perm


def shuffle_pairs(n, p):
    for u in R.descending_shuffles(n, p):
        for v in R.ascending_shuffles(n, p):
            yield u, v


# comparability

def test_shuffles_comparable_examples():
    assert R.shuffles_comparable((3, 5, 2, 4, 1), (1, 4, 2, 5, 3), 3)
    assert R.shuffles_comparable((1, 2), (1, 2), 1)
    assert R.shuffles_comparable((2, 1), (1, 2), 1)
    # v puts its big-block value first: S hits 1 while F stays 0
    assert not R.shuffles_comparable((1, 2), (2, 1), 1)


def test_shuffles_comparable_preconditions():
    with pytest.raises(R.ShufflePatternError):
        R.shuffles_comparable((1, 2), (2, 1), 0)  # (2,1) not ascending at 0... u fails first
    with pytest.raises(R.ShufflePatternError):
        R.shuffles_comparable((1, 2, 3), (1, 2, 3), 2)  # u not descending
    with pytest.raises(R.ShufflePatternError):
        R.shuffles_comparable((2, 1, 3), (3, 2, 1), 1)  # v not ascending
    with pytest.raises(ValueError):
        R.shuffles_comparable((2, 1), (1, 2), 5)


def test_shuffle_lists_refuse_a_bad_block_size():
    with pytest.raises(ValueError, match=r"block size p must lie in 0\.\.3, got 4"):
        R.descending_shuffles(3, 4)


def test_clan_of_pair_refuses_a_bad_block_size():
    # the descending-shuffle test checks p; the permutations are checked first
    with pytest.raises(ValueError, match=r"block size p must lie in 0\.\.3, got 4"):
        R.clan_of_pair((3, 2, 1), (1, 2, 3), 4)
    with pytest.raises(ValueError, match=r"block size p must lie in 0\.\.3, got -1"):
        R.clan_of_pair((3, 2, 1), (1, 2, 3), -1)
    with pytest.raises(ValueError, match="u = 331 is not a permutation"):
        R.clan_of_pair((3, 3, 1), (1, 2, 3), 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_comparability_agrees_with_bruhat(n):
    for p in range(n + 1):
        for u, v in shuffle_pairs(n, p):
            assert R.shuffles_comparable(u, v, p) == bruhat_leq_rank(v, u)


# the clan of a pair and its inverse

def test_clan_of_pair_worked_examples():
    assert R.clan_of_pair((3, 6, 5, 4, 2, 1), (1, 4, 2, 3, 5, 6), 3) == ("+", "-", 1, 2, 2, 1)
    assert R.clan_of_pair((3, 5, 2, 4, 1), (1, 4, 2, 5, 3), 3) == ("+", "-", "+", "-", "+")
    assert R.clan_of_pair((2, 1), (1, 2), 1) == (1, 1)
    assert R.clan_of_pair((1, 2), (1, 2), 1) == ("+", "-")


def test_clan_of_pair_incomparable():
    with pytest.raises(R.IncomparableError) as err:
        R.clan_of_pair((1, 2), (2, 1), 1)
    assert "oracle" in str(err.value)


def test_lazy_and_eager_failure_agree():
    # the symbol walk underflows its stack exactly when the prefix test
    # fails, and clan_of_pair names the prefix where it does
    for n in (3, 4, 5):
        for p in range(n + 1):
            for u, v in shuffle_pairs(n, p):
                first = second = 0
                underflow = None
                for i, (uj, vj) in enumerate(zip(u, v), start=1):
                    if uj > p and vj <= p:
                        first += 1
                    elif uj <= p and vj > p:
                        second += 1
                        if first < second:
                            underflow = i
                            break
                assert R.shuffles_comparable(u, v, p) == (underflow is None)
                if underflow is None:
                    continue
                with pytest.raises(R.IncomparableError) as err:
                    R.clan_of_pair(u, v, p)
                assert (
                    f"at prefix i = {underflow} there are {first} positions with u > {p} >= v "
                    f"but {second} with v > {p} >= u;"
                ) in str(err.value)


def test_clan_of_pair_avoids_1212():
    for n in (2, 3, 4, 5):
        for p in range(n + 1):
            for u, v in R.admissible_pairs(n, p):
                gamma = R.clan_of_pair(u, v, p)
                assert C.avoids_1212(gamma)
                assert C.signature(gamma) == (p, n - p)


@pytest.mark.parametrize("n", range(1, 7))
def test_admissible_pairs_lists_every_comparable_shuffle_pair_in_order(n):
    # the shuffle pairs with u >= v by the rank-matrix Bruhat test, in
    # lexicographic order, one for each (1,2,1,2)-avoiding clan
    for p in range(n + 1):
        want = sorted((u, v) for u in R.descending_shuffles(n, p)
                      for v in R.ascending_shuffles(n, p) if bruhat_leq_rank(v, u))
        assert list(R.admissible_pairs(n, p)) == want
        avoiding = [g for g in C.enumerate_clans(p, n - p) if avoids_1212_pairwise(g)]
        assert len(want) == len(avoiding)


def test_pair_of_clan_worked_examples():
    assert R.pair_of_clan(("+", "-", 1, 2, 2, 1)) == ((3, 6, 5, 4, 2, 1), (1, 4, 2, 3, 5, 6))
    assert R.pair_of_clan((1, 2, "+", 2, 1)) == ((5, 4, 3, 2, 1), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        R.pair_of_clan((1, 2, 1, 2))


@pytest.mark.parametrize("total", [2, 3, 4])
def test_roundtrips(total):
    for p in range(total + 1):
        q = total - p
        if q < 0 or total < 1:
            continue
        for u, v in R.admissible_pairs(total, p):
            gamma = R.clan_of_pair(u, v, p)
            assert R.pair_of_clan(gamma) == (u, v)
        for gamma in C.enumerate_clans(p, q):
            if C.avoids_1212(gamma):
                u, v = R.pair_of_clan(gamma)
                assert R.clan_of_pair(u, v, p) == gamma


def test_dimension_identity_spot():
    for n, p in [(4, 2), (5, 3), (5, 1)]:
        for u, v in R.admissible_pairs(n, p):
            gamma = R.clan_of_pair(u, v, p)
            assert inversions(u) - inversions(v) == C.orbit_dimension(gamma)


# the product rule

def test_special_product_golden(golden_table):
    x = P.parse_perm(golden_table["x"])
    y = P.parse_perm(golden_table["y"])
    expansion = R.special_product(x, y, golden_table["p"])
    want = {
        word_to_perm(row["word"], 5)
        for row in golden_table["rows"]
        if row["constant"] == 1
    }
    assert set(expansion) == want
    assert all(c == 1 for c in expansion.values())
    degree = P.length(x) + P.length(y)
    assert all(P.length(w) == degree for w in expansion)


def test_special_product_identity_case():
    assert R.special_product((1, 2, 3), (1, 2, 3), 2) == {(1, 2, 3): 1}


def test_special_product_diagnostics():
    with pytest.raises(R.ShufflePatternError) as err:
        R.special_product((3, 1, 4, 2, 5), (1, 4, 2, 5, 3), 2)
    assert "descending shuffle" in str(err.value)
    with pytest.raises(R.ShufflePatternError) as err:
        R.special_product((3, 1, 4, 2, 5), (2, 1, 3, 4, 5), 3)
    assert "ascending shuffle" in str(err.value)
    # u = w0 x = 12 sits below v = 21: empty Richardson variety
    with pytest.raises(R.IncomparableError):
        R.special_product((2, 1), (2, 1), 1)
    with pytest.raises(ValueError):
        R.special_product((2, 1), (1, 2, 3), 1)


def test_special_product_multiplicity_free():
    for n in (2, 3, 4):
        for p in range(1, n):
            for u, v in R.admissible_pairs(n, p):
                x = P.compose(P.longest(n), u)
                expansion = R.special_product(x, v, p)
                assert all(c == 1 for c in expansion.values())


def test_structure_constant_golden(golden_table):
    x = P.parse_perm(golden_table["x"])
    y = P.parse_perm(golden_table["y"])
    p = golden_table["p"]
    for row in golden_table["rows"]:
        w = word_to_perm(row["word"], 5)
        assert R.structure_constant(x, y, w, p) == row["constant"]


def test_structure_constant_wrong_length():
    with pytest.raises(ValueError):
        R.structure_constant((3, 1, 4, 2, 5), (1, 4, 2, 5, 3), P.identity(5), 3)
    with pytest.raises(ValueError):
        R.structure_constant((2, 1), (1, 2), (2, 1, 3), 1)


def test_structure_constant_rejects_a_non_permutation_w():
    # 55511 has the product's length 6, so only the permutation check stops it
    with pytest.raises(ValueError, match="w = 55511 is not a permutation"):
        R.structure_constant((3, 1, 4, 2, 5), (1, 4, 2, 5, 3), (5, 5, 5, 1, 1), 3)


def test_clan_of_pair_rejects_a_non_permutation():
    # 331 passes both shuffle checks and would pair with 123 into (1,-,1)
    with pytest.raises(ValueError, match="u = 331 is not a permutation"):
        R.clan_of_pair((3, 3, 1), (1, 2, 3), 1)
    with pytest.raises(ValueError, match="v = 113 is not a permutation"):
        R.clan_of_pair((3, 2, 1), (1, 1, 3), 1)


def test_special_product_rejects_non_permutations():
    # x is checked before w0 x is formed: 012 would index w0 from the end
    # and compose to a permutation
    for x in ((1, 1, 2), (0, 1, 2), (5, 1, 2)):
        with pytest.raises(ValueError, match=f"x = {P.format_perm(x)} is not a permutation"):
            R.special_product(x, (1, 2, 3), 1)
    with pytest.raises(ValueError, match="y = 113 is not a permutation"):
        R.special_product((1, 3, 2), (1, 1, 3), 1)


@functools.cache
def admissible_list(n, p):
    return list(R.admissible_pairs(n, p))


# The clan rule against the oracle on seeded admissible pairs, drawn along
# the heavy tail: product sizes at n = 8 and 9 run from 1 to over 100
# terms, and uniform draws rarely leave the small ones.  A seeded pool of
# pairs is sized by the clan rule and up to STRATA_PER_BAND pairs are drawn
# from each band floor(log2(terms)), the top bands included.
STRATA_POOL = 1500
STRATA_PER_BAND = 3


@pytest.mark.parametrize("n", [8, 9])
def test_oracle_equivalence_random_pairs(n):
    rng = random.Random(n)
    pairs = [(p, u, v) for p in range(1, n) for u, v in admissible_list(n, p)]
    bands = {}
    for p, u, v in rng.sample(pairs, min(len(pairs), STRATA_POOL)):
        x = P.compose(P.longest(n), u)
        fast = R.special_product(x, v, p)
        bands.setdefault(len(fast).bit_length() - 1, []).append((x, v, fast))
    assert max(bands) >= 6  # products of 64 terms and more
    for band in bands.values():
        for x, v, fast in rng.sample(band, min(len(band), STRATA_PER_BAND)):
            assert O.oracle_product(x, v, n) == fast, (x, v)


def test_alternating_product_n9_matches_oracle():
    # the 384-term product of the alternating (5,4)-clan
    u, v = R.pair_of_clan(tuple("+-"[k % 2] for k in range(9)))
    x = P.compose(P.longest(9), u)
    fast = R.special_product(x, v, 5)
    assert len(fast) == 384
    assert fast == O.restrict_to_degree(O.oracle_product(x, v), 9)


# enumeration helpers

def test_shuffle_listings():
    assert R.descending_shuffles(2, 1) == [(1, 2), (2, 1)]
    assert R.ascending_shuffles(2, 1) == [(1, 2), (2, 1)]
    assert len(R.descending_shuffles(5, 3)) == 10
    assert all(P.is_descending_shuffle(u, 3) for u in R.descending_shuffles(5, 3))
    assert all(P.is_ascending_shuffle(v, 2) for v in R.ascending_shuffles(5, 2))
    # each listing is the lexicographic filter of S_n, complete and in order
    for n in range(1, 7):
        for p in range(n + 1):
            blocks = {w: ([x for x in w if x <= p], [x for x in w if x > p]) for w in all_perms(n)}
            down = (list(range(p, 0, -1)), list(range(n, p, -1)))
            up = (list(range(1, p + 1)), list(range(p + 1, n + 1)))
            assert R.descending_shuffles(n, p) == [w for w, b in blocks.items() if b == down]
            assert R.ascending_shuffles(n, p) == [w for w, b in blocks.items() if b == up]
    # past the brute force, each listing is still sorted and free of repeats
    for n in (7, 8):
        for p in range(n + 1):
            for listing in (R.descending_shuffles(n, p), R.ascending_shuffles(n, p)):
                assert listing == sorted(listing)
                assert len(set(listing)) == len(listing)
