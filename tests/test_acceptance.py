"""
Acceptance suite: every criterion exact, each with its stated time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Any assertion failure is a real defect; nothing here is
tolerance-tuned.
"""

import itertools
import json
import random
import time

import pytest

from schubert_clans import cli
from schubert_clans import clans as C
from schubert_clans import oracle as O
from schubert_clans import permutations as P
from schubert_clans import richardson as R
from schubert_clans import weak_order as W
from schubert_clans.oracle import MultiPoly

from conftest import (
    all_perms,
    all_reduced_words,
    bruhat_leq_rank,
    inversions,
    leading_exponent,
    monk_rule,
    packed_divdiff,
    reconstruct,
    simple,
    word_to_perm,
)


_write_line = print


@pytest.fixture(autouse=True, scope="module")
def _route_past_capture(request):
    # send the PASS lines through pytest's own terminal stream so they show
    # even under default output capture
    global _write_line
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        _write_line = lambda line: reporter.write_line("\n" + line)
    yield


def report(criterion, message, elapsed, bound):
    assert elapsed < bound, f"criterion {criterion} took {elapsed:.2f}s, bound {bound}s"
    _write_line(f"ACCEPTANCE {criterion}: PASS  {message}  ({elapsed:.2f}s < {bound:.0f}s)")


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    code = cli.main(["table1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["output"]["rows"] == 20
    assert doc["output"]["bytes_match"] is True
    report(1, "20-row golden table regenerated byte-identically", elapsed, 1.0)


def test_criterion_2_example_product(golden_table):
    started = time.perf_counter()
    x, y, p = (3, 1, 4, 2, 5), (1, 4, 2, 5, 3), 3
    expansion = R.special_product(x, y, p)
    assert len(expansion) == 8
    assert all(c == 1 for c in expansion.values())
    want = {
        word_to_perm(row["word"], 5)
        for row in golden_table["rows"]
        if row["constant"] == 1
    }
    assert set(expansion) == want
    elapsed = time.perf_counter() - started
    report(2, "S_31425 . S_14253 has exactly the 8 unit terms of the table", elapsed, 60.0)


def test_criterion_3_oracle_equivalence_sweep():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for p in range(1, n):
            for u, v in R.admissible_pairs(n, p):
                x = P.compose(P.longest(n), u)
                fast = R.special_product(x, v, p)
                whole = O.oracle_product(x, v)
                # the whole product lies in S_n, so its S_n part drops no term
                assert all(len(P.trim(w)) <= n for w in whole), (n, p, u, v)
                assert fast == O.restrict_to_degree(whole, n), (n, p, u, v)
                checked += 1
    assert checked == 2040
    elapsed = time.perf_counter() - started
    report(3, f"clan rule == whole oracle product on all {checked} pairs, n <= 7", elapsed, 300.0)


def test_criterion_4_action_well_defined():
    started = time.perf_counter()
    cases = 0
    clan_sets = [C.enumerate_clans(p, 4 - p) for p in range(5)]
    for w in all_perms(4):
        words = all_reduced_words(w)
        for clan_set in clan_sets:
            for gamma in clan_set:
                results = {W.act_word(word, gamma) for word in words}
                assert len(results) == 1, (w, gamma)
                cases += 1
    elapsed = time.perf_counter() - started
    report(4, f"all reduced words agree on {cases} (w, clan) cases with p+q = 4", elapsed, 30.0)


def test_criterion_5_dimension_identity():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for p in range(n + 1):
            for u, v in R.admissible_pairs(n, p):
                gamma = R.clan_of_pair(u, v, p)
                assert inversions(u) - inversions(v) == C.orbit_dimension(gamma), (u, v, p)
                checked += 1
    elapsed = time.perf_counter() - started
    report(5, f"length(u) - length(v) == orbit dimension on {checked} pairs, n <= 6", elapsed, 60.0)


def test_criterion_6_prefix_condition_matches_bruhat():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for p in range(n + 1):
            for u in R.descending_shuffles(n, p):
                for v in R.ascending_shuffles(n, p):
                    assert R.shuffles_comparable(u, v, p) == bruhat_leq_rank(v, u), (u, v, p)
                    checked += 1
    elapsed = time.perf_counter() - started
    report(6, f"prefix-count comparability == rank-matrix Bruhat on {checked} pairs, n <= 6", elapsed, 60.0)


def test_criterion_7_roundtrips():
    started = time.perf_counter()
    pairs = avoiders = 0
    for n in range(2, 6):
        for p in range(n + 1):
            for u, v in R.admissible_pairs(n, p):
                assert R.pair_of_clan(R.clan_of_pair(u, v, p)) == (u, v)
                pairs += 1
            for gamma in C.enumerate_clans(p, n - p):
                if C.avoids_1212(gamma):
                    u, v = R.pair_of_clan(gamma)
                    assert R.clan_of_pair(u, v, p) == gamma
                    avoiders += 1
    elapsed = time.perf_counter() - started
    report(7, f"round-trips hold on {pairs} pairs and {avoiders} avoiding clans, p+q <= 5", elapsed, 60.0)


def test_criterion_8_graph_structure():
    from math import comb

    started = time.perf_counter()
    for n in range(2, 6):
        for p in range(n + 1):
            q = n - p
            graph = W.weak_order_graph(p, q)
            dense = C.dense_clan(p, q)
            edges = list(W.iter_edges(graph))
            for src, dst, root in edges:
                assert C.orbit_dimension(dst) == C.orbit_dimension(src) + 1
            targets = {dst for _, dst, _ in edges}
            starts = {src for src, _, _ in edges}
            srcs = [g for g in graph.nodes if g not in targets]
            assert all(C.is_sign_only(g) for g in srcs)
            assert len(srcs) == comb(n, p)
            assert [g for g in graph.nodes if g not in starts] == [dense]
            w0 = P.longest(n)
            for gamma in graph.nodes:
                assert W.act(w0, gamma) == dense
    elapsed = time.perf_counter() - started
    report(8, "single edges, +1 dimension, sign-only sources, dense sink, w0 absorption, p+q <= 5", elapsed, 60.0)


def test_criterion_9_oracle_self_consistency():
    started = time.perf_counter()

    # divided difference relations on seeded random polynomials, m <= 5
    rng = random.Random(20210905)
    for _ in range(25):
        m = rng.randint(2, 5)
        coeffs = {
            tuple(rng.randint(0, 3) for _ in range(m)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 6))
        }
        poly = MultiPoly(m, coeffs)
        for i in range(1, m):
            assert packed_divdiff(i, packed_divdiff(i, poly)) == MultiPoly(m)
        for i in range(1, m - 1):
            aba = packed_divdiff(i, packed_divdiff(i + 1, packed_divdiff(i, poly)))
            bab = packed_divdiff(i + 1, packed_divdiff(i, packed_divdiff(i + 1, poly)))
            assert aba == bab

    # code monomial leads, exhaustively for S_4 and S_5
    for n in (4, 5):
        for w in all_perms(n):
            poly = O.schubert_poly(w, n)
            lead = leading_exponent(poly)
            assert lead == P.code(w) and poly.coeffs[lead] == 1

    # expansion round-trip: exhaustive S_4, spot-checked on S_5
    for w in all_perms(4):
        assert O.expand_schubert(O.schubert_poly(w, 4)) == {P.trim(w): 1}
    spot = random.Random(7).sample(all_perms(5), 20)
    for w in spot:
        assert O.expand_schubert(O.schubert_poly(w, 5)) == {P.trim(w): 1}

    # positivity and reconstruction over all S_4 products
    for x, y in itertools.product(all_perms(4), repeat=2):
        expansion = O.oracle_product(x, y)
        assert all(c > 0 for c in expansion.values())
    for x, y in [((2, 4, 1, 3), (3, 1, 4, 2)), ((4, 2, 3, 1), (2, 1, 4, 3))]:
        m = 7
        product = O.multiply(O.schubert_poly(x, m), O.schubert_poly(y, m))
        assert reconstruct(O.expand_schubert(product), m) == product

    # Monk moves: multiplicity-free, single crossing transposition, S_4
    for x in all_perms(4):
        for k in range(1, 4):
            got = O.restrict_to_degree(O.oracle_product(x, simple(k, 4)), 5)
            assert got == monk_rule(P.pad(x, 5), k)
            assert set(got.values()) <= {1}

    # duality: the top class appears once in S_x . S_{w0 x}
    w0 = P.longest(4)
    for x in all_perms(4):
        assert O.oracle_product(x, P.compose(w0, x)).get(w0, 0) == 1

    elapsed = time.perf_counter() - started
    report(9, "divided-difference relations, leading codes, round-trips, Monk, duality", elapsed, 120.0)
