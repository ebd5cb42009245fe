import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_clans import clans as C
from schubert_clans import oracle as O
from schubert_clans import permutations as P
from schubert_clans import richardson as R

from conftest import bruhat_leq_rank, inversions, word_to_perm


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
    # the symbol walk underflows its stack exactly when the prefix test fails
    for n in (3, 4, 5):
        for p in range(n + 1):
            for u, v in shuffle_pairs(n, p):
                opens = 0
                underflow = False
                for uj, vj in zip(u, v):
                    if uj > p and vj <= p:
                        opens += 1
                    elif uj <= p and vj > p:
                        opens -= 1
                        if opens < 0:
                            underflow = True
                            break
                assert R.shuffles_comparable(u, v, p) == (not underflow)


def test_clan_of_pair_avoids_1212():
    for n in (2, 3, 4, 5):
        for p in range(n + 1):
            for u, v in R.admissible_pairs(n, p):
                gamma = R.clan_of_pair(u, v, p)
                assert C.avoids_1212(gamma)
                assert C.signature(gamma) == (p, n - p)


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


def test_oracle_equivalence_n4():
    for p in range(1, 4):
        for u, v in R.admissible_pairs(4, p):
            x = P.compose(P.longest(4), u)
            fast = R.special_product(x, v, p)
            slow = O.restrict_to_degree(O.oracle_product(x, v), 4)
            assert fast == slow, (p, u, v)


@functools.cache
def admissible_list(n, p):
    return list(R.admissible_pairs(n, p))


@pytest.mark.parametrize("n", [8, 9])
@given(data=st.data())
@settings(max_examples=12, derandomize=True, deadline=None)
def test_oracle_equivalence_random_pairs(n, data):
    p = data.draw(st.integers(1, n - 1), label="p")
    u, v = data.draw(st.sampled_from(admissible_list(n, p)), label="(u, v)")
    x = P.compose(P.longest(n), u)
    fast = R.special_product(x, v, p)
    slow = O.restrict_to_degree(O.oracle_product(x, v), n)
    assert fast == slow


# enumeration helpers and the wire format

def test_shuffle_listings():
    assert R.descending_shuffles(2, 1) == [(1, 2), (2, 1)]
    assert R.ascending_shuffles(2, 1) == [(1, 2), (2, 1)]
    assert len(R.descending_shuffles(5, 3)) == 10
    assert all(P.is_descending_shuffle(u, 3) for u in R.descending_shuffles(5, 3))
    assert all(P.is_ascending_shuffle(v, 2) for v in R.ascending_shuffles(5, 2))


def test_expansion_json_shape():
    x, y = (3, 1, 4, 2, 5), (1, 4, 2, 5, 3)
    doc = R.expansion_json_dict(x, y, 3, R.special_product(x, y, 3))
    assert doc["x"] == "31425" and doc["y"] == "14253" and doc["p"] == 3
    ws = [t["w"] for t in doc["terms"]]
    assert ws == sorted(ws)
    assert all(t["coeff"] == 1 for t in doc["terms"])
