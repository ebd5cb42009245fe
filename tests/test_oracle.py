import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_clans import oracle as O
from schubert_clans import permutations as P
from schubert_clans.guards import BoundedStore
from schubert_clans.oracle import MultiPoly

from conftest import (
    all_perms,
    divided_difference,
    expand_schubert_scan,
    leading_exponent,
    monk_rule,
    oracle_product_2n,
    packed_divdiff,
    packed_expand,
    poly_mul,
    poly_sum,
    reconstruct,
    schubert_reference,
    simple,
    vars_needed_scan,
)


def polys(max_arity=5):
    def build(m):
        exps = st.tuples(*[st.integers(0, 3)] * m)
        return st.dictionaries(exps, st.integers(-5, 5), max_size=6).map(
            lambda d: MultiPoly(m, d)
        )

    return st.integers(2, max_arity).flatmap(build)


# MultiPoly, and the tests' tuple arithmetic on it

def test_multipoly_basics():
    x1, x2 = MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, 1): 1})
    x1_plus_x2 = poly_sum([(1, x1), (1, x2)], 2)
    assert x1_plus_x2.coeffs == {(1, 0): 1, (0, 1): 1}
    assert poly_sum([(1, x1), (-1, x1)], 2) == MultiPoly(2)
    assert poly_mul(x1, x1).coeffs == {(2, 0): 1}
    assert poly_mul(x1_plus_x2, x1).coeffs == {(2, 0): 1, (1, 1): 1}
    assert poly_mul(x1, MultiPoly(2)) == MultiPoly(2)
    p = MultiPoly(3, {(0, 0, 0): 1})
    assert poly_mul(p, p) == p
    assert MultiPoly(2) != MultiPoly(3)
    assert repr(x1_plus_x2) == "MultiPoly(2, {(1, 0): 1, (0, 1): 1})"
    with pytest.raises(ValueError):
        poly_sum([(1, x1), (1, p)], 2)
    with pytest.raises(ValueError):
        poly_mul(x1, p)
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) does not have arity 2"):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match=r"negative exponent in \(-1, 0\)"):
        MultiPoly(2, {(-1, 0): 1})


def test_multipoly_drops_zeros():
    p = MultiPoly(2, {(1, 0): 0, (0, 1): 2})
    assert p.coeffs == {(0, 1): 2}


@given(polys(), polys())
def test_multiply_arity_agreement(p, q):
    if p.arity == q.arity:
        prod = O.multiply(p, q)
        assert prod.arity == p.arity
        assert all(c != 0 for c in prod.coeffs.values())
        assert prod == poly_mul(p, q)
    else:
        with pytest.raises(ValueError):
            O.multiply(p, q)


def test_multiply_beyond_a_byte():
    # exponents above 255 do not fit the packed product
    p, q = MultiPoly(2, {(200, 1): 1}), MultiPoly(2, {(100, 0): 2, (0, 3): 1})
    with pytest.raises(ValueError, match="degree at most 255, not 301"):
        O.multiply(p, q)


# divided differences

def test_divdiff_basic():
    # hand values, on the kernel and on the reference by definition
    cases = [
        (1, {(1, 0): 1}, {(0, 0): 1}),
        # symmetric input dies: x1*x2 is symmetric in (1, 2)
        (1, {(1, 1): 1}, {}),
        # d_1 (x1^2 x2) = x1 x2
        (1, {(2, 1): 1}, {(1, 1): 1}),
        # geometric sum: d_1 (x1^3) = x1^2 + x1 x2 + x2^2
        (1, {(3, 0): 1}, {(2, 0): 1, (1, 1): 1, (0, 2): 1}),
        # d_2 (x2 - x3^2) = 1 + x2 + x3
        (2, {(0, 1, 0): 1, (0, 0, 2): -1}, {(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
    ]
    for i, poly, want in cases:
        assert packed_divdiff(i, MultiPoly(len(next(iter(poly))), poly)).coeffs == want
        assert divided_difference(i, poly) == want


@given(polys())
@settings(max_examples=60)
def test_divdiff_kernel_matches_definition(p):
    for i in range(1, p.arity):
        assert packed_divdiff(i, p).coeffs == divided_difference(i, p.coeffs)


@given(polys())
@settings(max_examples=60)
def test_divdiff_square_zero(p):
    for i in range(1, p.arity):
        once = packed_divdiff(i, p)
        assert packed_divdiff(i, once) == MultiPoly(p.arity)


@given(polys())
@settings(max_examples=60)
def test_divdiff_braid(p):
    for i in range(1, p.arity - 1):
        d_i = lambda q, k=i: packed_divdiff(k, q)
        d_j = lambda q, k=i + 1: packed_divdiff(k, q)
        assert d_i(d_j(d_i(p))) == d_j(d_i(d_j(p)))


@given(polys())
@settings(max_examples=40)
def test_divdiff_leibniz_degree(p):
    # the operator drops homogeneous degree by one
    for i in range(1, p.arity):
        out = packed_divdiff(i, p)
        degrees_in = {sum(e) for e in p.coeffs}
        degrees_out = {sum(e) for e in out.coeffs}
        assert degrees_out <= {d - 1 for d in degrees_in}


# Schubert polynomials

def test_schubert_poly_examples():
    assert O.schubert_poly((1, 2, 3), 3) == MultiPoly(3, {(0, 0, 0): 1})
    assert O.schubert_poly((3, 2, 1), 3).coeffs == {(2, 1, 0): 1}
    assert O.schubert_poly((1, 3, 2), 3).coeffs == {(1, 0, 0): 1, (0, 1, 0): 1}
    assert O.schubert_poly((5, 4, 3, 2, 1), 5).coeffs == {(4, 3, 2, 1, 0): 1}


def test_schubert_poly_stability():
    for m in (2, 3, 5, 7):
        got = O.schubert_poly((1, 3, 2), m)
        want = {tuple(1 if i == k else 0 for i in range(m)): 1 for k in (0, 1)}
        assert got.coeffs == want
    # trailing fixed points are irrelevant
    assert O.schubert_poly((2, 1), 4) == O.schubert_poly((2, 1, 3, 4), 4)


def test_schubert_poly_any_arity_after_warm_calls():
    # one cached polynomial per trimmed permutation, whatever the arity;
    # each call hands out its own copy
    O.clear_schubert_cache()
    for w in all_perms(4):
        at_n = O.schubert_poly(w, 4)
        for m in (7, 4, 3):
            if m >= O._last_descent(w):
                got = O.schubert_poly(w, m)
                assert got.coeffs == {e[:m] + (0,) * (m - 4): c for e, c in at_n.coeffs.items()}
                got.coeffs.clear()
                assert O.schubert_poly(w, m).coeffs
    # building S_w for w in S_4 passes only through trimmed permutations of S_4
    assert set(O._SCHUBERT_CACHE) == {P.trim(w) for w in all_perms(4)}
    assert O.schubert_cache_size() == 24
    O.clear_schubert_cache()
    assert O.schubert_cache_size() == 0


def test_schubert_poly_m_too_small():
    with pytest.raises(ValueError):
        O.schubert_poly((1, 3, 2), 1)  # needs x2
    # S_312 = x1^2 needs only one variable even though 312 lives in S_3
    assert O.schubert_poly((3, 1, 2), 1).coeffs == {(2,): 1}
    with pytest.raises(ValueError):
        O.schubert_poly((1, 2, 2), 3)


def test_variable_bound_is_last_descent():
    # the bound schubert_poly reads from w against the monomial scan
    for n in range(1, 8):
        for w in all_perms(n):
            assert O._last_descent(w) == vars_needed_scan(O.schubert_poly(w, n).coeffs), w


def test_schubert_family_alternate_recursion():
    # recompute every S_w of S_4 descending from the staircase by *last*
    # ascent instead of first, with the divided difference by its
    # definition; well-definedness demands the same family
    m = 4
    family = {(4, 3, 2, 1): {(3, 2, 1, 0): 1}}
    by_length = sorted(all_perms(4), key=lambda w: -sum(1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j]))
    for w in by_length:
        if w in family:
            continue
        ascents = [i for i in range(1, 4) if w[i - 1] < w[i]]
        i = ascents[-1]
        up = list(w)
        up[i - 1], up[i] = up[i], up[i - 1]
        family[w] = divided_difference(i, family[tuple(up)])
    for w in all_perms(4):
        assert O.schubert_poly(w, m).coeffs == family[w]


def test_schubert_reference_matches_schubert_poly():
    # the tests' reference polynomials, from the staircase by conftest's
    # divided difference, against the oracle's cached ones
    for n in range(1, 7):
        for w in all_perms(n):
            for m in (n, 2 * n - 1):
                assert schubert_reference(w, m) == O.schubert_poly(w, m).coeffs, (w, m)
    # stable under trailing fixed points, cut to the variables S_w uses
    assert schubert_reference((1, 3, 2, 4, 5), 2) == {(1, 0): 1, (0, 1): 1}
    with pytest.raises(ValueError, match="needs more than m = 1 variables"):
        schubert_reference((1, 3, 2), 1)


@pytest.mark.parametrize("n", [4, 5])
def test_code_monomial_is_leading(n):
    for w in all_perms(n):
        poly = O.schubert_poly(w, n)
        lead = leading_exponent(poly)
        assert lead == P.code(w)
        assert poly.coeffs[lead] == 1
        assert all(e[::-1] <= lead[::-1] for e in poly.coeffs)


# greedy expansion

def test_expand_examples():
    m = 3
    assert O.expand_schubert(MultiPoly(m, {(1, 0, 0): 1, (0, 1, 0): 1})) == {(1, 3, 2): 1}
    assert O.expand_schubert(MultiPoly(m)) == {}
    assert O.expand_schubert(MultiPoly(m, {(2, 1, 0): 1})) == {(3, 2, 1): 1}


def test_expand_roundtrip_s5():
    for w in all_perms(5):
        assert O.expand_schubert(O.schubert_poly(w, 5)) == {P.trim(w): 1}


def test_expand_degree_arguments():
    with pytest.raises(ValueError):
        O.expand_schubert(MultiPoly(1, {(256,): 1}))  # past a packed exponent
    # x1^2 + x1 x2 is S_312 + S_231, and x1^3 is S_4123, outside S_3
    p = MultiPoly(3, {(2, 0, 0): 1, (1, 1, 0): 1, (3, 0, 0): 1})
    assert packed_expand(p, 3) == {(2, 3, 1): 1, (3, 1, 2): 1}
    assert O.expand_schubert(p) == {(4, 1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}


def test_oracle_product_past_a_packed_exponent():
    # l(w0) = 136 in S_17, so S_w0 . S_w0 has degree 272; oracle_product
    # raises what expand_schubert raises on that product
    w0 = P.longest(17)
    message = "degree at most 255"
    s_w0 = O.schubert_poly(w0, 17)
    with pytest.raises(ValueError, match=message):
        O.expand_schubert(poly_mul(s_w0, s_w0))
    with pytest.raises(ValueError, match=message):
        O.multiply(s_w0, s_w0)
    with pytest.raises(ValueError, match=message):
        O.oracle_product(w0, w0)
    # x is not below w0 y = identity, so the degree path cuts first
    assert O.oracle_product(w0, w0, 17) == {}


def test_oracle_product_on_a_long_walk_to_w0():
    # S_w is built from S_w0 by l(w0) - l(w) = 1224 divided differences
    # here, far past Python's default recursion limit of 1000
    w = tuple(range(1, 49)) + (50, 49)
    O.clear_schubert_cache()
    assert O.oracle_product(w, (1,)) == {w: 1}
    assert O.schubert_cache_size() == 1226


def h_poly(d, k, n):
    """h_d(x_1..x_k) in n variables, by its definition."""
    return MultiPoly(n, {
        exps + (0,) * (n - k): 1
        for exps in itertools.product(range(d + 1), repeat=k)
        if sum(exps) == d
    })


@pytest.mark.parametrize("n", range(1, 7))
def test_box_reducers_lie_in_the_coinvariant_ideal(n):
    # h_(n-k+1)(x_1..x_k), which the degree-n greedy subtracts, expands
    # into S_w with w outside S_n only, so it adds nothing to the S_n part
    for k in range(1, n + 1):
        h = h_poly(n - k + 1, k, n)
        expansion = O.expand_schubert(h)
        assert expansion and all(len(P.trim(w)) > n for w in expansion), (n, k)
        assert packed_expand(h, n) == {}


@pytest.mark.parametrize("n", range(1, 7))
def test_powers_past_the_box_lie_in_the_coinvariant_ideal(n):
    # x_k^n has no S_n part, which lets the degree-n greedy drop every
    # monomial with an exponent >= n; the full expansion shows it
    for k in range(1, n + 1):
        power = MultiPoly(n, {tuple(n if i == k - 1 else 0 for i in range(n)): 1})
        expansion = O.expand_schubert(power)
        assert expansion and all(len(P.trim(w)) > n for w in expansion), (n, k)


def test_oracle_product_past_degree_128():
    # above 128 the greedy drops nothing (its byte bias would be negative),
    # and the S_n part is the same as in small degree
    def trimmed(expansion):
        return {P.trim(w): c for w, c in expansion.items()}

    assert trimmed(O.oracle_product((2, 1), (2, 1), 130)) == {(3, 1, 2): 1}
    for degree in (128, 130, 200):
        got = trimmed(O.oracle_product((1, 3, 2), (1, 3, 2), degree))
        assert got == {(1, 4, 2, 3): 1, (2, 3, 1): 1}, degree


def test_expand_signed_input():
    m = 3
    p = MultiPoly(m, {(1, 0, 0): 2, (0, 1, 0): -3})
    expansion = O.expand_schubert(p)
    assert reconstruct(expansion, m) == p


@given(polys(max_arity=3))
@settings(max_examples=40)
def test_expand_reconstructs(p):
    expansion = O.expand_schubert(p)
    assert reconstruct(expansion, p.arity) == p


@given(polys(max_arity=4))
@settings(max_examples=100)
def test_expand_matches_scan(p):
    # signed input: monomials cancel and come back while the heap holds them
    assert list(O.expand_schubert(p).items()) == list(expand_schubert_scan(p).items())


def test_expand_matches_scan_on_s4_products():
    for x in all_perms(4):
        sx = O.schubert_poly(x, 7)
        for y in all_perms(4):
            product = O.multiply(sx, O.schubert_poly(y, 7))
            assert list(O.expand_schubert(product).items()) == list(
                expand_schubert_scan(product).items()
            )


# products

def test_oracle_product_examples():
    assert O.oracle_product((2, 1, 3), (2, 1, 3)) == {(3, 1, 2): 1}
    y = (2, 3, 1)
    assert O.oracle_product(P.identity(3), y) == {P.trim(y): 1}
    got = O.restrict_to_degree(O.oracle_product((3, 1, 4, 2, 5), (1, 4, 2, 5, 3)), 5)
    assert len(got) == 8 and all(c == 1 for c in got.values())


def test_oracle_product_mixed_degrees():
    assert O.oracle_product((2, 1), (2, 1, 3)) == {(3, 1, 2): 1}
    assert O.oracle_product((2, 1), (2, 1, 3), 3) == {(3, 1, 2): 1}
    assert O.oracle_product((2, 1), (2, 1), 4) == {(3, 1, 2, 4): 1}
    with pytest.raises(ValueError):
        O.oracle_product((2, 1), (2, 1, 3), 2)
    with pytest.raises(ValueError):
        O.oracle_product((3, 3, 1), (2, 1, 3), 3)


def test_non_permutations_are_named():
    # the same message as the rest of the package: argument name, one-line text
    with pytest.raises(ValueError, match="x = 331 is not a permutation of 1..3"):
        O.oracle_product((3, 3, 1), (2, 1, 3), 3)
    with pytest.raises(ValueError, match="y = 1134 is not a permutation"):
        O.oracle_product((2, 1), (1, 1, 3, 4))
    with pytest.raises(ValueError, match="w = 122 is not a permutation"):
        O.schubert_poly((1, 2, 2), 3)


def test_oracle_product_matches_reference_s1_to_s5():
    # every pair of S_1..S_5: all terms against the 2n - 1 reference in
    # S_5, and the degree-n path against its S_n part throughout
    for n in range(1, 6):
        for x in all_perms(n):
            for y in all_perms(n):
                ref = oracle_product_2n(x, y)
                if n == 5:
                    assert O.oracle_product(x, y) == ref, (x, y)
                assert O.oracle_product(x, y, n) == O.restrict_to_degree(ref, n), (x, y)


SEEDED = [(7, 50), (8, 16)]


def seeded_pairs(n, count):
    """count seeded pairs of S_n short enough to have an S_n part by
    degree (l(x) + l(y) <= l(w0))."""
    rng = random.Random(n)
    pairs = []
    while len(pairs) < count:
        x, y = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
        if P.length(x) + P.length(y) <= n * (n - 1) // 2:
            pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("n, count", SEEDED)
def test_oracle_product_matches_reference_seeded(n, count):
    for x, y in seeded_pairs(n, count):
        ref = oracle_product_2n(x, y)
        if n == 7:
            assert O.oracle_product(x, y) == ref, (x, y)
        assert O.oracle_product(x, y, n) == O.restrict_to_degree(ref, n), (x, y)


def uncut_greedy(x, y, n):
    """The S_n part of S_x . S_y by the degree-n greedy, with no cut before it."""
    return packed_expand(O.multiply(O.schubert_poly(x, n), O.schubert_poly(y, n)), n)


def w0_times(y):
    return tuple(len(y) + 1 - v for v in y)


def test_bruhat_cut_matches_uncut_greedy_s1_to_s5():
    # the fact the degree path's cut rests on, by arithmetic: the S_n part
    # is nonempty exactly when x <= w0 y
    nonempty = 0
    for n in range(1, 6):
        for x in all_perms(n):
            for y in all_perms(n):
                has_part = bool(uncut_greedy(x, y, n))
                assert has_part == P.bruhat_leq(x, w0_times(y)), (x, y)
                nonempty += has_part
    # y -> w0 y is a bijection, so these are the Bruhat pairs x <= z of
    # S_1..S_5: 1 + 3 + 19 + 213 + 3781 (OEIS A007767)
    assert nonempty == 4017


@pytest.mark.parametrize("n, count", SEEDED)
def test_bruhat_cut_matches_uncut_greedy_seeded(n, count):
    pairs = seeded_pairs(n, count)
    results = [bool(uncut_greedy(x, y, n)) for x, y in pairs]
    assert results == [P.bruhat_leq(x, w0_times(y)) for x, y in pairs]
    # both sides of the cut occur among the pairs
    assert 0 < sum(results) < count


def test_degree_cut_s4(monkeypatch):
    # past l(w0) = 6 the coinvariant ring is 0: no S_4 terms on either path,
    # and the degree-4 path returns before it multiplies
    long_pairs = [(x, y) for x in all_perms(4) for y in all_perms(4) if P.length(x) + P.length(y) > 6]
    # lengths in S_4 count 1, 3, 5, 6, 5, 3, 1; of the 576 pairs, 106 sum
    # to 6 and by symmetry half the rest sum to more
    assert len(long_pairs) == 235
    for x, y in long_pairs:
        assert O.restrict_to_degree(O.oracle_product(x, y), 4) == {}

    def no_multiply(p, q):
        raise AssertionError("multiplied past the degree cut")

    monkeypatch.setattr(O, "_multiply_packed", no_multiply)
    for x, y in long_pairs:
        assert O.oracle_product(x, y, 4) == {}


def test_bruhat_cut_skips_the_multiply(monkeypatch):
    # l(x) + l(y) = 24 <= 28 passes the degree cut, but x is not below w0 y;
    # the uncut greedy spends 160 ideal steps to reach {}
    x, y = (1, 4, 5, 6, 7, 8, 2, 3), (6, 5, 3, 2, 4, 7, 1, 8)
    assert P.length(x) + P.length(y) == 24
    assert not P.bruhat_leq(x, w0_times(y))
    assert uncut_greedy(x, y, 8) == {}

    def no_multiply(p, q):
        raise AssertionError("multiplied past the Bruhat cut")

    monkeypatch.setattr(O, "_multiply_packed", no_multiply)
    O.clear_schubert_cache()
    assert O.oracle_product(x, y, 8) == {}
    # nor was any Schubert polynomial built
    assert O.schubert_cache_size() == 0


def test_schubert_cache_cap(monkeypatch):
    pairs = [(x, y) for x in all_perms(4) for y in all_perms(4)][::37]
    want = [O.oracle_product(x, y) for x, y in pairs]
    monkeypatch.setattr(O, "SCHUBERT_CACHE_MAX_MONOMIALS", 30)
    built = []
    put = BoundedStore.put

    def recording_put(store, key, value):
        built.append(key)
        return put(store, key, value)

    monkeypatch.setattr(BoundedStore, "put", recording_put)
    O._SCHUBERT_CACHE.clear()
    evicting_calls = 0
    for (x, y), expected in zip(pairs, want):
        before = set(O._SCHUBERT_CACHE)
        built.clear()
        assert O.oracle_product(x, y) == expected
        cache = O._SCHUBERT_CACHE
        assert cache.weight == sum(map(len, cache.values())) <= 30
        # past the bound the oldest polynomials go; those the call built are
        # the newest, and here they always fit the bound
        assert set(built) <= set(cache)
        evicting_calls += not before <= set(cache)
    assert evicting_calls > 0


def test_oracle_repeat_after_the_cache_overflows(monkeypatch):
    # A and B build disjoint sets of polynomials, of 18 and 59 monomials;
    # a bound between 59 and 18 + 59 keeps all of B, the newer product
    a, b = ((4, 1, 5, 2, 3), (1, 3, 2, 4, 5), 5), ((5, 1, 2, 6, 3, 4), (1, 3, 4, 2, 5, 6), 6)
    O.clear_schubert_cache()
    O.oracle_product(*a)
    built_by_a = set(O._SCHUBERT_CACHE)
    assert O._SCHUBERT_CACHE.weight == 18
    O.clear_schubert_cache()
    want = O.oracle_product(*b)
    assert O._SCHUBERT_CACHE.weight == 59
    assert not built_by_a & set(O._SCHUBERT_CACHE)

    monkeypatch.setattr(O, "SCHUBERT_CACHE_MAX_MONOMIALS", 60)
    O.clear_schubert_cache()
    O.oracle_product(*a)
    assert O.oracle_product(*b) == want
    assert O._SCHUBERT_CACHE.weight == 59

    def no_divdiff(coeffs, k):
        raise AssertionError("the repeat call built a polynomial again")

    monkeypatch.setattr(O, "_divdiff", no_divdiff)
    assert O.oracle_product(*b) == want


def test_oracle_product_positivity_s3():
    for x in all_perms(3):
        for y in all_perms(3):
            prod = O.oracle_product(x, y)
            assert all(c > 0 for c in prod.values())
            degree = P.length(x) + P.length(y)
            assert all(P.length(w) == degree for w in prod)


def test_duality_s4():
    w0 = P.longest(4)
    for x in all_perms(4):
        prod = O.oracle_product(x, P.compose(w0, x))
        assert prod.get(w0, 0) == 1


def test_monk_against_transposition_rule():
    for x in all_perms(4):
        for k in range(1, 4):
            got = O.oracle_product(x, simple(k, 4))
            want = monk_rule(P.pad(x, 5), k)
            assert O.restrict_to_degree(got, 5) == want
            assert all(c == 1 for c in got.values())


def test_monk_examples():
    assert O.oracle_product(P.identity(3), simple(1, 3)) == {(2, 1): 1}
    assert O.oracle_product((2, 1, 3), simple(1, 3)) == {(3, 1, 2): 1}


def test_bench_oracle_counts_small_cases():
    # tools/bench_oracle.py counts by wrapping oracle internals; its small
    # cases must reproduce the committed BENCH file through that counter
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = json.loads(bench.BENCH_FILE.read_text())["cases"]
    originals = (O._multiply_packed, O._divdiff, O._schubert_coeffs, O._pack, O._box_reducer,
                 P.code_to_perm)
    small = [c for c in cases if c["name"] in ("alternating n=8", "heavy S_8 pairs")
             or (c["name"], c["mode"]) == ("empty S_8 products", "restricted")]
    assert len(small) == 5
    for case in small:
        n, make = bench.INPUTS[case["name"]]
        counts, _ = bench.run_case(make(), n if case["mode"] == "restricted" else None)
        assert counts == case["counts"], case["name"]
    # the counter puts the oracle's own functions back
    assert (O._multiply_packed, O._divdiff, O._schubert_coeffs, O._pack, O._box_reducer,
            P.code_to_perm) == originals
