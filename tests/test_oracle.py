import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_clans import oracle as O
from schubert_clans import permutations as P
from schubert_clans.oracle import MultiPoly

from conftest import (
    all_perms,
    expand_schubert_scan,
    leading_exponent,
    monk_rule,
    reconstruct,
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


# MultiPoly arithmetic

def test_multipoly_basics():
    x1 = MultiPoly.variable(1, 2)
    x2 = MultiPoly.variable(2, 2)
    assert (x1 + x2).coeffs == {(1, 0): 1, (0, 1): 1}
    assert (x1 - x1) == MultiPoly.zero(2)
    assert not (x1 - x1)
    assert (x1 * x1).coeffs == {(2, 0): 1}
    assert ((x1 + x2) * x1).coeffs == {(2, 0): 1, (1, 1): 1}
    assert (3 * x1).coeffs == {(1, 0): 3}
    assert (x1 * 0) == MultiPoly.zero(2)
    p = MultiPoly.one(3)
    assert (p * p) == p
    with pytest.raises(ValueError):
        x1 + MultiPoly.one(3)
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
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
    else:
        with pytest.raises(ValueError):
            O.multiply(p, q)


# divided differences

def test_divdiff_basic():
    x1 = MultiPoly.variable(1, 2)
    assert O.divided_difference(1, x1) == MultiPoly.one(2)
    # symmetric input dies: x1*x2 is symmetric in (1, 2)
    assert O.divided_difference(1, x1 * MultiPoly.variable(2, 2)) == MultiPoly.zero(2)
    # hand value: d_1 (x1^2 x2) = x1 x2
    p = MultiPoly(2, {(2, 1): 1})
    assert O.divided_difference(1, p).coeffs == {(1, 1): 1}
    # geometric sum: d_1 (x1^3) = x1^2 + x1 x2 + x2^2
    cube = MultiPoly(2, {(3, 0): 1})
    assert O.divided_difference(1, cube).coeffs == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    with pytest.raises(IndexError):
        O.divided_difference(2, p)


@given(polys())
@settings(max_examples=60)
def test_divdiff_square_zero(p):
    for i in range(1, p.arity):
        once = O.divided_difference(i, p)
        assert O.divided_difference(i, once) == MultiPoly.zero(p.arity)


@given(polys())
@settings(max_examples=60)
def test_divdiff_braid(p):
    for i in range(1, p.arity - 1):
        d_i = lambda q, k=i: O.divided_difference(k, q)
        d_j = lambda q, k=i + 1: O.divided_difference(k, q)
        assert d_i(d_j(d_i(p))) == d_j(d_i(d_j(p)))


@given(polys())
@settings(max_examples=40)
def test_divdiff_leibniz_degree(p):
    # the operator drops homogeneous degree by one
    for i in range(1, p.arity):
        out = O.divided_difference(i, p)
        degrees_in = {sum(e) for e in p.coeffs}
        degrees_out = {sum(e) for e in out.coeffs}
        assert degrees_out <= {d - 1 for d in degrees_in}


# Schubert polynomials

def test_schubert_poly_examples():
    assert O.schubert_poly((1, 2, 3), 3) == MultiPoly.one(3)
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
    # ascent instead of first; well-definedness demands the same family
    m = 4
    family = {(4, 3, 2, 1): MultiPoly(m, {(3, 2, 1, 0): 1})}
    by_length = sorted(all_perms(4), key=lambda w: -sum(1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j]))
    for w in by_length:
        if w in family:
            continue
        ascents = [i for i in range(1, 4) if w[i - 1] < w[i]]
        i = ascents[-1]
        up = list(w)
        up[i - 1], up[i] = up[i], up[i - 1]
        family[w] = O.divided_difference(i, family[tuple(up)])
    for w in all_perms(4):
        assert O.schubert_poly(w, m) == family[w]


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
    assert O.expand_schubert(MultiPoly.zero(m)) == {}
    assert O.expand_schubert(MultiPoly(m, {(2, 1, 0): 1})) == {(3, 2, 1): 1}


def test_expand_roundtrip_s5():
    for w in all_perms(5):
        assert O.expand_schubert(O.schubert_poly(w, 5)) == {P.trim(w): 1}


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
