import inspect
import math
import sys
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schubert_clans import permutations as P

from conftest import (
    all_perms,
    all_reduced_words,
    bruhat_leq_pairs,
    bruhat_leq_rank,
    inversions,
    rank_matrix,
    word_to_perm,
)

perms_strategy = st.integers(1, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


# construction and basics

def test_identity_and_longest():
    assert P.identity(3) == (1, 2, 3)
    assert P.identity(1) == (1,)
    assert P.longest(5) == (5, 4, 3, 2, 1)
    assert P.longest(2) == (2, 1)
    assert P.longest(1) == (1,)
    assert P.length(P.longest(5)) == 10
    with pytest.raises(ValueError):
        P.identity(0)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        P.longest(0)
    with pytest.raises(ValueError, match=r"w = 113 is not a permutation of 1\.\.3"):
        P.parse_perm("113")
    with pytest.raises(ValueError, match="empty permutation text"):
        P.parse_perm(" ")


def test_compose():
    assert P.compose((5, 4, 3, 2, 1), (3, 5, 2, 4, 1)) == (3, 1, 4, 2, 5)
    w = (2, 4, 1, 3)
    assert P.compose(w, P.identity(4)) == w
    assert P.compose((2, 1), (2, 1)) == (1, 2)
    with pytest.raises(ValueError):
        P.compose((1, 2), (1, 2, 3))


def test_compose_rejects_non_permutations():
    # 0 would index w0 from the end, and 5 past it
    with pytest.raises(ValueError, match=r"^b = 012 is not a permutation of 1\.\.3$"):
        P.compose((3, 2, 1), (0, 1, 2))
    with pytest.raises(ValueError, match=r"^b = 512 is not a permutation of 1\.\.3$"):
        P.compose((3, 2, 1), (5, 1, 2))
    with pytest.raises(ValueError, match=r"^a = 221 is not a permutation"):
        P.compose((2, 2, 1), (1, 2, 3))


@given(perms_strategy)
def test_inverse_roundtrip(w):
    assert P.compose(w, P.inverse(w)) == P.identity(len(w))
    assert P.compose(P.inverse(w), w) == P.identity(len(w))


def test_length_frozen_values():
    # brute counts done by hand: 35241 has inversion pairs
    # (3,2),(3,1),(5,2),(5,4),(5,1),(2,1),(4,1)
    assert P.length((3, 5, 2, 4, 1)) == 7
    assert P.length((1, 4, 2, 5, 3)) == 3
    assert P.length(P.identity(6)) == 0


@given(perms_strategy)
def test_length_is_inversion_count(w):
    assert P.length(w) == inversions(w)


def test_rank_matrix_monotone():
    w = (3, 5, 2, 4, 1)
    m = rank_matrix(w)
    assert rank_matrix(P.identity(4)) == tuple(
        tuple(min(i, j) for j in range(1, 5)) for i in range(1, 5)
    )
    for i in range(5):
        for j in range(5):
            assert m[i][j] == sum(1 for k in range(i + 1) if w[k] <= j + 1)
            if i:
                assert m[i][j] >= m[i - 1][j]
            if j:
                assert m[i][j] >= m[i][j - 1]


# Bruhat order: the rank-matrix reference against an independent closure

@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_definitions_against_closure(n):
    leq = bruhat_leq_pairs(n)
    for u in all_perms(n):
        for v in all_perms(n):
            assert bruhat_leq_rank(u, v) == ((u, v) in leq)


def test_bruhat_examples():
    assert bruhat_leq_rank((1, 4, 2, 5, 3), (3, 5, 2, 4, 1))
    for w in all_perms(4):
        assert bruhat_leq_rank(P.identity(4), w)
    assert not bruhat_leq_rank((2, 1, 3, 4, 5), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        bruhat_leq_rank((1, 2), (1, 2, 3))


def test_bruhat_leq_matches_rank_reference():
    for n in range(1, 6):
        perms = all_perms(n)
        for u in perms:
            for v in perms:
                assert P.bruhat_leq(u, v) == bruhat_leq_rank(u, v), (u, v)


def test_bruhat_leq_rejects_bad_input():
    with pytest.raises(ValueError, match="degree mismatch"):
        P.bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="^u = 113 is not a permutation"):
        P.bruhat_leq((1, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="^v = 104 is not a permutation"):
        P.bruhat_leq((1, 2, 3), (1, 0, 4))


# Lehmer codes

def test_code_frozen_values():
    assert P.code((3, 1, 4, 2, 5)) == (2, 0, 1, 0, 0)
    assert P.code(P.identity(4)) == (0, 0, 0, 0)
    assert P.code((5, 4, 3, 2, 1)) == (4, 3, 2, 1, 0)


def test_code_to_perm():
    assert P.code_to_perm((2, 0, 1, 0, 0)) == (3, 1, 4, 2, 5)
    assert P.code_to_perm((0, 0, 0)) == (1, 2, 3)
    assert P.code_to_perm((4, 3, 2, 1)) == (5, 4, 3, 2, 1)
    assert P.code_to_perm(()) == (1,)
    with pytest.raises(ValueError):
        P.code_to_perm((1, -1))


@given(perms_strategy)
def test_code_roundtrip_and_sum(w):
    assert P.code_to_perm(P.code(w)) == w
    assert sum(P.code(w)) == P.length(w)


@given(st.lists(st.integers(0, 6), max_size=6))
def test_code_to_perm_accepts_any_code(c):
    # defining property: the code of the result is c extended by zeros
    c = tuple(c)
    w = P.code_to_perm(c)
    got = P.code(w)
    assert len(got) >= max(len(c), 1)
    assert got == c + (0,) * (len(got) - len(c))


# reduced words

def test_reduced_word_canonical():
    assert P.reduced_word(P.identity(4)) == ()
    assert P.reduced_word((1, 3, 2, 4)) == (2,)
    word = P.reduced_word((3, 2, 1))
    assert word == (1, 2, 1)
    assert word_to_perm(word, 3) == (3, 2, 1)


@given(perms_strategy)
def test_reduced_word_composes(w):
    word = P.reduced_word(w)
    assert len(word) == P.length(w)
    assert word_to_perm(word, len(w)) == w


def test_all_reduced_words():
    assert all_reduced_words((3, 2, 1)) == frozenset({(1, 2, 1), (2, 1, 2)})
    assert all_reduced_words((2, 1, 3)) == frozenset({(1,)})
    assert all_reduced_words(P.identity(3)) == frozenset({()})
    assert len(all_reduced_words(P.longest(5))) == 768
    for w in all_perms(4):
        words = all_reduced_words(w)
        assert P.reduced_word(w) in words
        for word in words:
            assert len(word) == P.length(w)
            assert word_to_perm(word, 4) == w


def test_longest_complement_identity():
    for n in range(1, 6):
        top = n * (n - 1) // 2
        for w in all_perms(n):
            assert P.length(P.compose(P.longest(n), w)) == top - P.length(w)


# shuffles

def test_descending_shuffle():
    assert P.is_descending_shuffle((3, 5, 2, 4, 1), 3)
    assert not P.is_descending_shuffle((3, 1, 4, 2, 5), 3)
    assert not P.is_descending_shuffle(P.identity(5), 1)
    assert P.is_descending_shuffle(P.longest(5), 2)
    with pytest.raises(ValueError):
        P.is_descending_shuffle((1, 2), 3)


def test_ascending_shuffle():
    assert P.is_ascending_shuffle((1, 4, 2, 5, 3), 3)
    assert P.is_ascending_shuffle(P.identity(5), 2)
    assert not P.is_ascending_shuffle((3, 2, 1, 4, 5), 1)
    with pytest.raises(ValueError, match=r"block size p must lie in 0\.\.2, got 3"):
        P.is_ascending_shuffle((1, 2), 3)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 0), (5, 1), (5, 3), (5, 5)])
def test_shuffles_against_brute_force(n, p):
    def desc(w):
        low = [x for x in w if x <= p]
        high = [x for x in w if x > p]
        return low == sorted(low, reverse=True) and high == sorted(high, reverse=True)

    def asc(w):
        low = [x for x in w if x <= p]
        high = [x for x in w if x > p]
        return low == sorted(low) and high == sorted(high)

    descs = [w for w in all_perms(n) if P.is_descending_shuffle(w, p)]
    ascs = [w for w in all_perms(n) if P.is_ascending_shuffle(w, p)]
    assert descs == [w for w in all_perms(n) if desc(w)]
    assert ascs == [w for w in all_perms(n) if asc(w)]
    assert len(descs) == comb(n, p)
    assert len(ascs) == comb(n, p)


# enumeration by length

def test_enumerate_by_length():
    assert len(P.enumerate_by_length(5, 6)) == 20
    assert P.enumerate_by_length(4, 0) == [P.identity(4)]
    assert P.enumerate_by_length(3, 3) == [(3, 2, 1)]
    assert P.enumerate_by_length(3, 7) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_by_length_against_filter(n):
    total = 0
    for k in range(n * (n - 1) // 2 + 1):
        got = P.enumerate_by_length(n, k)
        want = sorted(w for w in all_perms(n) if inversions(w) == k)
        assert got == want  # content and deterministic lexicographic order
        total += len(got)
    assert total == math.factorial(n)


def test_enumerate_by_length_past_the_recursion_limit():
    # the slice is built a position at a time, so its depth does not grow
    # with n; the lowered limit leaves 150 frames above this test
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        got = P.enumerate_by_length(300, 1, guard=300)
    finally:
        sys.setrecursionlimit(limit)
    # the 299 simple transpositions, s_299 first in lexicographic order
    assert got == [word_to_perm((i,), 300) for i in range(299, 0, -1)]


def test_enumerate_guard():
    from schubert_clans.guards import GuardError

    with pytest.raises(GuardError):
        P.enumerate_by_length(11, 3)


# text round-trip

def test_parse_format():
    assert P.parse_perm("35241") == (3, 5, 2, 4, 1)
    assert P.parse_perm("3,5,2,4,1") == (3, 5, 2, 4, 1)
    assert P.format_perm((3, 5, 2, 4, 1)) == "35241"
    big = tuple(range(1, 13))
    assert P.format_perm(big) == "1,2,3,4,5,6,7,8,9,10,11,12"
    assert P.parse_perm(P.format_perm(big)) == big
    with pytest.raises(ValueError):
        P.parse_perm("31")
    with pytest.raises(ValueError, match="cannot parse w from '3a1'"):
        P.parse_perm("3a1")
    with pytest.raises(ValueError, match="cannot parse x from '3a1'"):
        P.parse_perm("3a1", "x")
    with pytest.raises(ValueError, match=r"y = 1,2,3,4,5,6,7,8,9,10,10 is not a permutation"):
        P.parse_perm("1,2,3,4,5,6,7,8,9,10,10", "y")
    with pytest.raises(ValueError):
        P.parse_perm("")


@given(perms_strategy)
def test_parse_format_roundtrip(w):
    assert P.parse_perm(P.format_perm(w)) == w


def test_trim_pad():
    assert P.trim((2, 1, 3, 4)) == (2, 1)
    assert P.trim((1, 2, 3)) == (1,)
    assert P.pad((2, 1), 4) == (2, 1, 3, 4)
    with pytest.raises(ValueError):
        P.pad((2, 1, 3), 2)
