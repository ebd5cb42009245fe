import inspect
import json
import random
import sys
import threading
from math import comb, prod

import pytest

from schubert_clans import clans as C
from schubert_clans import permutations as P
from schubert_clans import richardson as R
from schubert_clans import weak_order as W
from schubert_clans.guards import GuardError

from conftest import (
    act_simple_rules,
    all_perms,
    all_reduced_words,
    load_tool,
    w_set_scan,
    word_to_perm,
)


def clans_upto(total):
    for n in range(2, total + 1):
        for p in range(n + 1):
            yield from C.enumerate_clans(p, n - p)


# root classification and single-step action

def test_classify_root():
    assert W.classify_root(1, ("+", 1, "-", 1)) is W.RootType.COMPLEX_SWAP
    assert W.classify_root(2, ("+", "+", "-", "-")) is W.RootType.NONCOMPACT_IMAGINARY
    assert W.classify_root(1, ("+", "+", "-", "-")) is W.RootType.FIXED
    assert W.classify_root(2, (1, 1, 2, 2)) is W.RootType.COMPLEX_SWAP
    assert W.classify_root(2, (1, 2, 1, 2)) is W.RootType.FIXED
    assert W.classify_root(2, (1, 2, 2, 1)) is W.RootType.FIXED  # same pair
    with pytest.raises(IndexError):
        W.classify_root(4, (1, 2, 1, 2))
    with pytest.raises(IndexError):
        W.classify_root(0, (1, 1))


def test_noncompact_iff_opposite_signs():
    for gamma in clans_upto(5):
        n = len(gamma)
        for i in range(1, n):
            opp = (
                gamma[i - 1] in ("+", "-")
                and gamma[i] in ("+", "-")
                and gamma[i - 1] != gamma[i]
            )
            got = W.classify_root(i, gamma) is W.RootType.NONCOMPACT_IMAGINARY
            assert got == opp


def test_act_simple_examples():
    assert W.act_simple(1, ("+", 1, "-", 1)) == (1, "+", "-", 1)
    assert W.act_simple(2, (1, 1, "+", "-")) == (1, "+", 1, "-")
    assert W.act_simple(2, (1, 1, 2, 2)) == (1, 2, 1, 2)
    assert W.act_simple(2, ("+", "+", "-", "-")) == ("+", 1, 1, "-")
    assert W.act_simple(1, ("+", "+", "-", "-")) == ("+", "+", "-", "-")


def test_act_simple_follows_the_rules():
    # every (clan, root) with p+q <= 7 against the docstring's four rules
    for gamma in clans_upto(7):
        for i in range(1, len(gamma)):
            want = act_simple_rules(i, gamma)
            assert W.act_simple(i, gamma) == want, (i, gamma)
            assert (W.classify_root(i, gamma) is W.RootType.FIXED) == (want == gamma)


def test_act_simple_returns_gamma_itself_exactly_when_fixed():
    # iter_edges and the w-set descent test `is gamma`, not equality
    for gamma in clans_upto(7):
        for i in range(1, len(gamma)):
            moved = W.act_simple(i, gamma)
            assert (moved is gamma) == (moved == gamma), (i, gamma)


def test_act_simple_returns_canonical_clans():
    # act_simple relabels only the nested-pair and both-open moves
    for gamma in clans_upto(7):
        for i in range(1, len(gamma)):
            moved = W.act_simple(i, gamma)
            assert C.relabel(moved) == moved, (i, gamma)


def test_act_simple_idempotent():
    for gamma in clans_upto(5):
        for i in range(1, len(gamma)):
            once = W.act_simple(i, gamma)
            assert W.act_simple(i, once) == once


def test_act_simple_dimension_step():
    for gamma in clans_upto(5):
        dim = C.orbit_dimension(gamma)
        for i in range(1, len(gamma)):
            moved = W.act_simple(i, gamma)
            if moved != gamma:
                assert C.orbit_dimension(moved) == dim + 1


def test_type_one_certificate():
    # non-compact imaginary roots always move under the cross action
    for gamma in clans_upto(5):
        for i in range(1, len(gamma)):
            if W.classify_root(i, gamma) is W.RootType.NONCOMPACT_IMAGINARY:
                crossed = gamma[: i - 1] + (gamma[i], gamma[i - 1]) + gamma[i + 1 :]
                assert crossed != gamma


# word action

def test_act_word_golden_rows(golden_table):
    start = C.parse_clan(golden_table["start_clan"])
    dense = C.dense_clan(golden_table["p"], golden_table["q"])
    for row in golden_table["rows"]:
        reached = W.act_word(tuple(row["word"]), start)
        assert C.format_clan(reached) == row["clan"]
        assert (1 if reached == dense else 0) == row["constant"]


def test_act_word_empty_and_errors():
    gamma = (1, "+", 1, "-")
    assert W.act_word((), gamma) == gamma
    with pytest.raises(IndexError):
        W.act_word((4,), gamma)
    # the clan is normalized first: a non-clan raises, a relabeled clan
    # gives a canonical result
    with pytest.raises(ValueError):
        W.act_word((1,), ("+", 1))
    with pytest.raises(ValueError):
        W.act((2, 1), ("x", "+"))
    assert W.act((2, 1, 3, 4), (5, "-", 5, "+")) == (1, "-", 1, "+")
    assert W.act_word((), (7, 7)) == (1, 1)


def test_act_word_splits():
    # applying a concatenation equals applying the right part first
    gamma = C.parse_clan("(+,-,+,-,+)")
    word = (2, 1, 3, 2, 3, 4)
    for cut in range(len(word) + 1):
        assert W.act_word(word, gamma) == W.act_word(
            word[:cut], W.act_word(word[cut:], gamma)
        )


def test_act_well_defined_on_all_reduced_words():
    for p in range(5):
        for gamma in C.enumerate_clans(p, 4 - p):
            for w in all_perms(4):
                results = {
                    W.act_word(word, gamma) for word in all_reduced_words(w)
                }
                assert len(results) == 1
                assert results.pop() == W.act(w, gamma)


def test_act_absorbs_into_dense():
    for gamma in clans_upto(5):
        p, q = C.signature(gamma)
        n = p + q
        assert W.act(P.longest(n), gamma) == C.dense_clan(p, q)
        assert W.act(P.identity(n), gamma) == gamma


def test_act_degree_mismatch():
    with pytest.raises(ValueError):
        W.act((2, 1, 3), (1, 1))


def test_act_rejects_a_non_permutation():
    # 221 has a reduced word by descents, so the action would run on it
    with pytest.raises(ValueError, match=r"^w = 221 is not a permutation of 1\.\.3$"):
        W.act((2, 2, 1), ("+", "-", "+"))


# the weak order graph

def test_graph_1_1():
    g = W.weak_order_graph(1, 1)
    assert set(g.nodes) == {("+", "-"), ("-", "+"), (1, 1)}
    assert list(W.iter_edges(g)) == [(("+", "-"), (1, 1), 1), (("-", "+"), (1, 1), 1)]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2), (1, 4)])
def test_graph_structure(p, q):
    from math import comb

    g = W.weak_order_graph(p, q)
    n = p + q
    # edges exist exactly for the non-fixed simple actions
    edges = list(W.iter_edges(g))
    for src, dst, root in edges:
        assert W.act_simple(root, src) == dst
        assert C.orbit_dimension(dst) == C.orbit_dimension(src) + 1
    seen = {(src, root) for src, _, root in edges}
    for gamma in g.nodes:
        for i in range(1, n):
            moved = W.act_simple(i, gamma)
            assert ((gamma, i) in seen) == (moved != gamma)
    # sources are the sign-only clans, the unique sink is the dense clan
    targets = {dst for _, dst, _ in edges}
    starts = {src for src, _, _ in edges}
    srcs = [gamma for gamma in g.nodes if gamma not in targets]
    assert all(C.is_sign_only(gamma) for gamma in srcs)
    assert len(srcs) == comb(n, p)
    assert [gamma for gamma in g.nodes if gamma not in starts] == [C.dense_clan(p, q)]


def test_graph_acyclic_paths_end_dense():
    g = W.weak_order_graph(2, 2)
    # dimension increases along edges, so the graph is acyclic and every
    # maximal path stops at the unique sink
    outgoing = {}
    for src, dst, root in W.iter_edges(g):
        outgoing.setdefault(src, []).append(dst)
    dense = C.dense_clan(2, 2)
    for gamma in g.nodes:
        frontier = {gamma}
        while frontier:
            nxt = set()
            for node in frontier:
                if node not in outgoing:
                    assert node == dense
                else:
                    nxt.update(outgoing[node])
            frontier = nxt


def test_graph_exports():
    g = W.weak_order_graph(1, 1)
    dot = "".join(W.graph_dot(g))
    assert dot.startswith("digraph")
    assert '"(+,-)" -> "(1,1)" [label=1];' in dot
    doc = W.graph_json_dict(g)
    assert (doc["p"], doc["q"], doc["nodes"]) == (1, 1, ["(+,-)", "(-,+)", "(1,1)"])
    # (src, dst, root) rows in iter_edges order, made as they are read
    assert list(doc["edges"]) == [("(+,-)", "(1,1)", 1), ("(-,+)", "(1,1)", 1)]
    assert list(doc["edges"]) == []
    g = W.weak_order_graph(3, 2)
    rows = list(W.graph_json_dict(g)["edges"])
    text = C.format_clan
    assert rows == [(text(src), text(dst), root) for src, dst, root in W.iter_edges(g)]


def test_edges_are_the_streamed_edges():
    g = W.weak_order_graph(3, 2)
    streamed = list(W.iter_edges(g))
    # made afresh on each walk
    assert list(W.iter_edges(g)) == streamed
    # clans in node order, each clan's roots ascending
    rank = {gamma: k for k, gamma in enumerate(g.nodes)}
    assert streamed == sorted(streamed, key=lambda e: (rank[e[0]], e[2]))
    assert len({(src, root) for src, _, root in streamed}) == len(streamed)


# the w-set and the class expansion

def test_w_set_golden(golden_table):
    start = C.parse_clan(golden_table["start_clan"])
    want = {
        word_to_perm(row["word"], 5)
        for row in golden_table["rows"]
        if row["constant"] == 1
    }
    got = W.w_set(start)
    assert set(got) == want
    assert len(got) == 8
    assert got == sorted(got)


def test_w_set_dense_and_codim1():
    assert W.w_set(C.dense_clan(3, 2)) == [P.identity(5)]
    assert W.w_set(("+",)) == [(1,)]
    got = W.w_set((1, 2, 1, 2))
    assert got == [(1, 2, 4, 3), (2, 1, 3, 4)]  # s_3 and s_1, lex order


def test_w_set_lengths():
    for gamma in C.enumerate_clans(2, 2):
        n = 4
        codim = n * (n - 1) // 2 - C.orbit_dimension(gamma)
        for w in W.w_set(gamma):
            assert P.length(w) == codim


def test_w_set_matches_length_slice_scan():
    for gamma in clans_upto(6):
        assert W.w_set(gamma) == w_set_scan(gamma), gamma


def test_w_set_shared_table_matches_scan_in_mixed_order():
    # a seeded shuffle mixes shapes, so each call finds the table filled by
    # earlier calls on other clans, some above it and some not
    order = list(clans_upto(6))
    random.Random(2012).shuffle(order)
    want = [w_set_scan(gamma) for gamma in order]
    W.clear_w_set_table()
    for _ in range(2):
        for gamma, expected in zip(order, want):
            assert W.w_set(gamma) == expected, gamma


def test_w_set_raises_on_a_descent_at_the_raising_root():
    # the invariant holds for every clan with p + q <= 8
    for n in range(1, 9):
        W.clear_w_set_table()
        for p in range(n + 1):
            for gamma in C.enumerate_clans(p, n - p):
                W.w_set(gamma)
    # s_1 raises (+,-) to the dense clan (1,1); a stored W((1,1)) holding
    # 21, which descends at root 1, breaks it
    W.clear_w_set_table()
    W._W_SET_TABLE.put((1, 1), ((2, 1),))
    try:
        with pytest.raises(RuntimeError, match=r"^w-set of \(1,1\) holds 21, which descends at root 1, below \(\+,-\)$"):
            W.w_set(("+", "-"))
    finally:
        W.clear_w_set_table()
    assert W.w_set(("+", "-")) == [(2, 1)]


def test_w_set_returns_a_fresh_list():
    gamma = C.parse_clan("(+,-,+,-,+)")
    first = W.w_set(gamma)
    want = list(first)
    first.reverse()
    first.append(P.identity(5))
    assert W.w_set(gamma) == want


def test_w_set_table_clear_and_size():
    W.clear_w_set_table()
    assert W.w_set_table_size() == 0
    gamma = tuple("+-"[k % 2] for k in range(8))
    W.w_set(gamma)
    # every clan the descent visits, the dense one included, stores its
    # w-set once
    assert W.w_set_table_size() == 6700
    W.w_set(gamma)
    assert W.w_set_table_size() == 6700
    # the guard is checked before the table is read
    with pytest.raises(GuardError):
        W.w_set(gamma, guard=7)
    W.clear_w_set_table()
    assert W.w_set_table_size() == 0
    assert len(W.w_set(gamma)) == 105


def test_bench_wset_counts_small_cases():
    # tools/bench_counts.py counts act_simple by wrapping it; its small w-set
    # cases must reproduce BENCH_wset.json through that counter
    bench = load_tool("bench_counts")
    bench_file = json.loads((bench.ROOT / "BENCH_wset.json").read_text())
    cases = {c["name"]: c["counts"] for c in bench_file["cases"]}
    original = W.act_simple
    for name in ("alternating n=8", "verify n=7 clan side"):
        counts, _ = bench.run_wset(bench.WSET_INPUTS[name])
        assert counts == cases[name], name
    # the counter puts act_simple back and leaves the table empty
    assert W.act_simple is original
    assert W.w_set_table_size() == 0


@pytest.mark.parametrize("total", range(1, 13))
def test_w_set_of_a_sign_only_clan_visits_every_clan_above_it(total):
    # the w-set of +^p -^q is a single permutation, but the descent reaches
    # it through C(p+q, p) clans and stores one permutation for each
    for p in range(total + 1):
        W.clear_w_set_table()
        gamma = ("+",) * p + ("-",) * (total - p)
        assert len(W.w_set(gamma, guard=total)) == 1
        assert W.w_set_table_size() == comb(total, p), (p, total - p)


def test_w_set_table_bound(monkeypatch):
    order = list(clans_upto(5))
    random.Random(9).shuffle(order)
    want = [w_set_scan(gamma) for gamma in order]
    monkeypatch.setattr(W, "W_SET_TABLE_MAX_PERMS", 40)
    W.clear_w_set_table()
    evicting_calls = 0
    for gamma, expected in zip(order, want):
        before = set(W._W_SET_TABLE)
        assert W.w_set(gamma) == expected, gamma
        assert W.w_set_table_size() == sum(map(len, W._W_SET_TABLE.values())) <= 40
        # past the bound the oldest w-sets go, and the call's own is newest
        assert W._W_SET_TABLE[gamma] == tuple(expected)
        evicting_calls += not before <= set(W._W_SET_TABLE)
    assert evicting_calls > 0


def test_w_set_repeat_after_the_table_overflows(monkeypatch):
    # the alternating n = 8 clan stores 6700 permutations, 105 of them its
    # own; trimmed to the bound, the table keeps the newest, its own included
    gamma = tuple("+-"[k % 2] for k in range(8))
    monkeypatch.setattr(W, "W_SET_TABLE_MAX_PERMS", 1000)
    W.clear_w_set_table()
    first = W.w_set(gamma)
    assert len(first) == 105
    assert 105 <= W.w_set_table_size() <= 1000

    def no_action(i, clan):
        raise AssertionError("the repeat call descended again")

    monkeypatch.setattr(W, "act_simple", no_action)
    assert W.w_set(gamma) == first


def test_w_set_past_the_recursion_limit():
    # the descent from +-^199 holds 199 clans open on its way up to the
    # dense clan, and the lowered limit leaves it 150 frames above this test
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    W.clear_w_set_table()
    try:
        got = W.w_set(("+",) + ("-",) * 199, guard=200)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [(200,) + tuple(range(1, 200))]
    assert W.w_set_table_size() == 200


def test_w_set_table_shared_by_threads(monkeypatch):
    # with a tiny bound, clears from one thread land in the middle of other
    # threads' descents; every result must stay exact
    order = list(clans_upto(5))
    want = {gamma: w_set_scan(gamma) for gamma in order}
    monkeypatch.setattr(W, "W_SET_TABLE_MAX_PERMS", 30)
    problems = []

    def worker(seed):
        mine = list(order)
        random.Random(seed).shuffle(mine)
        try:
            for _ in range(3):
                for gamma in mine:
                    if W.w_set(gamma) != want[gamma]:
                        problems.append(gamma)
        except Exception as exc:  # a thread's exception would otherwise be lost
            problems.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []


def test_w_set_table_after_the_clan_side_of_every_pair_at_n7():
    W.clear_w_set_table()
    w0 = P.longest(7)
    for p in range(1, 7):
        for u, v in R.admissible_pairs(7, p):
            R.special_product(P.compose(w0, u), v, p)
    assert W.w_set_table_size() == 7242
    assert len(W._W_SET_TABLE) == 1848


@pytest.mark.parametrize("n", range(1, 13))
def test_w_set_sign_only_clan_has_one_term(n):
    gamma = ("+",) * (n // 2) + ("-",) * (n - n // 2)
    assert len(W.w_set(gamma, guard=12)) == 1


@pytest.mark.parametrize("n", range(2, 10))
def test_w_set_alternating_clan_double_factorial(n):
    # |W| = (n-1)!!, checked against the length-slice scan for n = 2..9 only
    gamma = tuple("+-"[k % 2] for k in range(n))
    assert len(W.w_set(gamma)) == prod(range(n - 1, 0, -2))


def test_w_set_normalizes_what_it_is_given():
    # any labeling gets its canonical clan's w-set, and a sequence that is
    # not a clan is refused before the shared table is read or written
    assert W.w_set((2, 1, 2, 1)) == W.w_set([1, 2, 1, 2]) == [(1, 2, 4, 3), (2, 1, 3, 4)]
    assert W.brion_class((2, "+", 2)) == {(1, 2, 3): 1}
    stored = W.w_set_table_size()
    with pytest.raises(ValueError, match="bad clan symbol 'x'"):
        W.w_set(("x", "+"))
    with pytest.raises(ValueError, match=r"unmatched pair label\(s\) \[1, 2\]"):
        W.w_set((1, 2))
    assert W.w_set_table_size() == stored
    assert (2, 1, 1, 2) not in W._W_SET_TABLE


def test_w_set_guard():
    with pytest.raises(GuardError):
        W.w_set(("+",) * 5 + ("-",) * 6)


def test_w_set_guard_ignores_the_environment(monkeypatch):
    # only guard= raises the default; the shell the tests run in does not
    monkeypatch.setenv("SCHUBERT_CLANS_PERM_GUARD", "12")
    with pytest.raises(GuardError):
        W.w_set(("+",) * 5 + ("-",) * 6)


def test_brion_class():
    expansion = W.brion_class(C.parse_clan("(+,-,+,-,+)"))
    assert len(expansion) == 8
    assert all(c == 1 for c in expansion.values())
    assert W.brion_class(C.dense_clan(2, 2)) == {P.identity(4): 1}
    for gamma in C.enumerate_clans(2, 2):
        if C.is_sign_only(gamma):
            assert all(c == 1 for c in W.brion_class(gamma).values())
