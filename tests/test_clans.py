from math import comb

import pytest

from schubert_clans import clans as C
from schubert_clans.guards import DEFAULT_CLAN_GUARD, GuardError

from conftest import avoids_1212_pairwise, clans_by_matching, dfs_rank


# parsing and the matching-position equivalence

def test_parse_equivalent_labelings():
    assert C.parse_clan("(1,2,1,2)", 2, 2) == (1, 2, 1, 2)
    assert C.parse_clan("(2,1,2,1)", 2, 2) == (1, 2, 1, 2)
    assert C.parse_clan("(5,7,5,7)", 2, 2) == (1, 2, 1, 2)
    assert C.parse_clan("(1,2,2,1)", 2, 2) != (1, 2, 1, 2)


def test_parse_forms():
    assert C.parse_clan("12+21") == (1, 2, "+", 2, 1)
    assert C.parse_clan("(+,−)") == ("+", "-")  # unicode minus
    assert C.parse_clan(" (1,1) ") == (1, 1)


def test_parse_errors():
    with pytest.raises(ValueError):
        C.parse_clan("(1,2,2)")  # unmatched label
    with pytest.raises(ValueError):
        C.parse_clan("(+,-)", 2, 1)  # wrong signature
    with pytest.raises(ValueError):
        C.parse_clan("(+,-,+)", 1, 2)  # sign count mismatch
    with pytest.raises(ValueError):
        C.parse_clan("(a,b)")
    with pytest.raises(ValueError):
        C.parse_clan("")
    # digits to str.isdigit that int() refuses are bad tokens, named as such
    for tok in ("²", "①"):
        with pytest.raises(ValueError, match=f"bad clan token '{tok}'"):
            C.parse_clan(f"({tok},{tok})")
    # a decimal digit of another script is one int() reads
    assert C.parse_clan("(١,١)") == (1, 1)
    # a type check names only the halves it was given
    for p, q, want in ((2, None, "p = 2"), (None, 3, "q = 3"), (2, 1, "(2, 1)")):
        with pytest.raises(ValueError) as err:
            C.parse_clan("(+,-)", p, q)
        assert str(err.value) == f"clan (+,-) has type (1, 1), expected {want}"


def test_parse_idempotent_on_output():
    for gamma in C.enumerate_clans(2, 2):
        assert C.parse_clan(C.format_clan(gamma)) == gamma
        # the compact form, which parse_clan also reads
        assert C.parse_clan("".join(map(str, gamma))) == gamma


def test_signature():
    assert C.signature(("+", "-", 1, 2, 2, 1)) == (3, 3)
    assert C.signature((1, 2, "+", 2, 1)) == (3, 2)


# counting functions, worked values

def test_gamma_plus_minus_cross():
    gamma = (1, "+", 1, "-")
    assert [C.gamma_plus(gamma, i) for i in (1, 2, 3, 4)] == [0, 1, 2, 2]
    assert [C.gamma_minus(gamma, i) for i in (1, 2, 3, 4)] == [0, 0, 1, 2]
    crossings = {
        (i, j): C.gamma_cross(gamma, i, j)
        for i in range(1, 4)
        for j in range(i + 1, 5)
    }
    assert crossings == {(1, 2): 1, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0, (3, 4): 0}


def test_gamma_edge_cases():
    allplus = ("+",) * 4
    for i in range(1, 5):
        assert C.gamma_plus(allplus, i) == i
        assert C.gamma_minus(("-",) * 4, i) == i
    assert C.gamma_plus((1, 1), 1) == 0
    assert C.gamma_plus((1, 1), 2) == 1
    assert C.gamma_minus((1, 1), 2) == 1
    assert C.gamma_cross((1, 2, 1, 2), 1, 2) == 1
    assert C.gamma_cross((1, 2, 1, 2), 2, 3) == 1
    assert C.gamma_cross(("+", "-"), 1, 2) == 0
    with pytest.raises(IndexError):
        C.gamma_plus(allplus, 5)
    with pytest.raises(IndexError):
        C.gamma_cross(allplus, 2, 2)


def test_gamma_prefix_identity():
    # gamma_plus(i) + gamma_minus(i) = i - number of pairs still open at i
    for p, q in [(2, 2), (3, 2), (1, 3)]:
        for gamma in C.enumerate_clans(p, q):
            n = p + q
            assert C.gamma_plus(gamma, n) == p
            assert C.gamma_minus(gamma, n) == q
            prev_p = prev_m = 0
            for i in range(1, n + 1):
                gp, gm = C.gamma_plus(gamma, i), C.gamma_minus(gamma, i)
                assert gp - prev_p in (0, 1) and gm - prev_m in (0, 1)
                prev_p, prev_m = gp, gm
                seen = {}
                for s in gamma[:i]:
                    if s not in ("+", "-"):
                        seen[s] = seen.get(s, 0) + 1
                open_pairs = sum(1 for c in seen.values() if c == 1)
                assert gp + gm == i - open_pairs


# length and dimension

def test_clan_length_frozen():
    assert C.clan_length(("+", "-", "+", "-", "+")) == 0
    assert C.clan_length((1, 2, 2, 1)) == 4  # pair (1,4) gives 3, pair (2,3) gives 1
    assert C.clan_length((1, 2, 1, 2)) == 3  # (1,3) gives 2, (2,4) gives 2-1


def test_orbit_dimension():
    assert C.orbit_dimension((1, 2, 2, 1)) == 6
    assert C.orbit_dimension((1, 2, 1, 2)) == 5
    assert C.orbit_dimension(("+", "-", "+", "-")) == 2
    assert C.orbit_dimension(("+", "-", "+", "-", "+")) == 4


def test_dense_clan():
    assert C.dense_clan(3, 2) == (1, 2, "+", 2, 1)
    assert C.dense_clan(2, 3) == (1, 2, "-", 2, 1)
    assert C.dense_clan(1, 1) == (1, 1)
    assert C.dense_clan(2, 0) == ("+", "+")
    with pytest.raises(ValueError):
        C.dense_clan(0, 0)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_dense_clan_is_unique_maximum(p, q):
    n = p + q
    top = n * (n - 1) // 2
    dense = C.dense_clan(p, q)
    assert C.orbit_dimension(dense) == top
    for gamma in C.enumerate_clans(p, q):
        assert C.clan_length(gamma) >= 0
        if gamma != dense:
            assert C.orbit_dimension(gamma) < top


# pattern predicates

def test_avoids_1212():
    assert C.avoids_1212((1, 2, 2, 1))
    assert not C.avoids_1212((1, 2, 1, 2))
    assert C.avoids_1212(("+", "-", "+"))
    assert C.avoids_1212((1, 1, 2, 2))
    assert not C.avoids_1212((1, 2, "+", 1, 2))


def test_avoids_1212_matches_the_pairwise_definition():
    checked = 0
    for total in range(1, 9):
        for p in range(total + 1):
            for gamma in C.enumerate_clans(p, total - p):
                assert C.avoids_1212(gamma) == avoids_1212_pairwise(gamma), gamma
                checked += 1
    assert checked == 9748


def test_is_sign_only():
    assert C.is_sign_only(("+", "-", "+", "-", "+"))
    assert not C.is_sign_only((1, "+", 1, "-"))
    assert not C.is_sign_only((1, 1))


# enumeration

def test_enumerate_small():
    assert C.enumerate_clans(1, 1) == [("+", "-"), ("-", "+"), (1, 1)]
    assert len(C.enumerate_clans(2, 2)) == 21
    with pytest.raises(ValueError, match=r"p \+ q >= 1, got \(0, 0\)"):
        C.enumerate_clans(0, 0)


@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(0, 8) for q in range(0, 8) if 1 <= p + q <= 7]
)
def test_enumeration_count_formula(p, q):
    # independent summation: choose pair positions, match them, place pluses
    n = p + q
    want = 0
    for k in range(min(p, q) + 1):
        matchings = 1
        for odd in range(1, 2 * k, 2):
            matchings *= odd
        want += comb(n, 2 * k) * matchings * comb(n - 2 * k, p - k)
    got = C.enumerate_clans(p, q)
    assert len(got) == want
    assert len(set(got)) == len(got)
    assert C.count_clans(p, q) == want
    for gamma in got:
        assert C.signature(gamma) == (p, q)
        assert C.normalize(gamma) == gamma  # canonical already
    signs = [g for g in got if C.is_sign_only(g)]
    assert len(signs) == comb(n, p)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_order_against_reference(n):
    # the documented order, + < - < open < close of the i-th smallest open
    # label, applied to clans listed without enumerate_clans
    for p in range(n + 1):
        want = sorted(clans_by_matching(p, n - p), key=dfs_rank)
        assert C.enumerate_clans(p, n - p) == want, (p, n - p)


def test_enumerate_guard():
    # the guard caps the symbols listed, count_clans(p, q) * (p + q)
    assert len(C.enumerate_clans(2, 2, guard=84)) == 21
    with pytest.raises(GuardError):
        C.enumerate_clans(2, 2, guard=83)
    # the default admits every shape with p + q <= 12, (6, 6) the largest,
    # and refuses (7, 6) before making a clan
    assert max(C.count_clans(p, 12 - p) for p in range(13)) * 12 == 10_148_292
    assert 10_148_292 <= DEFAULT_CLAN_GUARD
    with pytest.raises(GuardError):
        C.enumerate_clans(7, 6)
    # a thin shape has few clans, but long ones: 45,451 clans of length 301
    with pytest.raises(GuardError, match=r"needs size 13680751, above the guard 12000000;"):
        C.enumerate_clans(1, 300)


def test_enumerate_guard_refuses_huge_shapes_without_counting(monkeypatch):
    # count_clans(30000, 30000) has tens of thousands of digits; the guard
    # refuses on the lower bound n * C(n, i) as soon as it passes the cap
    def no_count(p, q):
        raise AssertionError("count_clans ran on a shape its lower bound refuses")

    monkeypatch.setattr(C, "count_clans", no_count)
    for p, q, least in [
        (30000, 30000, 3_600_000_000),
        (100000, 100000, 40_000_000_000),
        (10**9, 10**9, 2_000_000_000),
        (0, 10**9, 1_000_000_000),
        (1, 10**6, 1_000_002_000_001),
    ]:
        with pytest.raises(GuardError, match=rf"needs size at least {least}, above the guard 12000000;"):
            C.enumerate_clans(p, q)
    monkeypatch.undo()
    # once the bound fits, the exact count decides: 13 * C(13, 6) fits, but
    # 13 * count_clans(7, 6) does not
    with pytest.raises(GuardError, match=r"needs size 45580821, above the guard 12000000;"):
        C.enumerate_clans(7, 6)


def test_enumerate_sign_only_shapes_at_any_length():
    # one clan however long: the forced-tail rule writes it in one step
    assert C.enumerate_clans(0, 5000) == [(C.MINUS,) * 5000]
    assert C.enumerate_clans(3, 0) == [(C.PLUS,) * 3]


def test_normalize_validation():
    with pytest.raises(ValueError):
        C.normalize((1, 2, 1))
    with pytest.raises(ValueError):
        C.normalize((1, 1, 1, 1))  # label must occur exactly twice
    with pytest.raises(ValueError):
        C.normalize(("x",))
    assert C.normalize((7, "+", 7)) == (1, "+", 1)


def test_relabel_and_mate():
    for n in range(1, 6):
        for p in range(n + 1):
            for gamma in C.enumerate_clans(p, n - p):
                renamed = tuple(s if s in ("+", "-") else 20 - s for s in gamma)
                assert C.relabel(renamed) == gamma
                for first, second in C.pair_positions(gamma).values():
                    assert C.mate(gamma, first) == second
                    assert C.mate(gamma, second) == first
                assert all(C.mate(gamma, pos) is None
                           for pos, s in enumerate(gamma, start=1) if s in ("+", "-"))
