"""
Shared brute-force oracles and reference algorithms for the test suite.

Everything here is deliberately independent of the package internals:
inversions by double loop, Bruhat order by transitive closure of covering
transpositions and by rank matrices, Monk's rule by explicit transposition
moves, reduced words by recursion on descents, polynomial products and
sums by tuple arithmetic (:func:`poly_mul`, :func:`poly_sum`).  Tests
compare the library against these, never the library against itself.
The exceptions are :func:`w_set_scan`, the w-set by its definition, built
from the package's action and length slices, and
:func:`expand_schubert_scan` and :func:`reconstruct`, the greedy Schubert
expansion by a full scan for each leader and its inverse, built from the
package's Schubert polynomials, and :func:`oracle_product_2n`, the oracle
in 2n - 1 variables; those pieces are tested on their own, and take
their products and sums from the tuple arithmetic here.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources

import pytest

from schubert_clans import clans, oracle, permutations, weak_order


def inversions(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def bruhat_leq_pairs(n) -> set:
    """All (u, v) with u <= v, built from covering relations u < u.t with a
    length jump of exactly one."""
    perms = all_perms(n)
    covers = {w: [] for w in perms}
    for w in perms:
        lw = inversions(w)
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] < w[j]:
                    t = list(w)
                    t[i], t[j] = t[j], t[i]
                    t = tuple(t)
                    if inversions(t) == lw + 1:
                        covers[w].append(t)
    leq = set()
    for w in perms:
        reachable = {w}
        stack = [w]
        while stack:
            for nxt in covers[stack.pop()]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    stack.append(nxt)
        leq.update((w, v) for v in reachable)
    return leq


def rank_matrix(w):
    """Full n x n rank matrix; row i, column j holds #{k <= i | w(k) <= j}."""
    n = len(w)
    rows = []
    prev = (0,) * n
    for i in range(1, n + 1):
        row = list(prev)
        for j in range(w[i - 1], n + 1):
            row[j - 1] += 1
        prev = tuple(row)
        rows.append(prev)
    return tuple(rows)


def bruhat_leq_rank(u, v) -> bool:
    """Bruhat order via rank matrices: u <= v iff r_u >= r_v entrywise."""
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    ru, rv = rank_matrix(u), rank_matrix(v)
    return all(ru[i][j] >= rv[i][j] for i in range(len(u)) for j in range(len(u)))


def simple(i, n):
    """The simple transposition s_i in S_n, swapping i and i+1."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"simple reflection index must lie in 1..{n - 1}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def word_to_perm(word, n):
    """Product s_{i_1} o s_{i_2} o ... o s_{i_k} of simple reflections in S_n."""
    w = permutations.identity(n)
    for i in word:
        w = permutations.compose(w, simple(i, n))
    return w


def right_descents(w) -> list:
    """Positions i with w(i) > w(i+1)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def all_reduced_words(w) -> frozenset:
    """The complete set of reduced words for w (w0 of S_5 has 768)."""
    memo = {}

    def words(v):
        got = memo.get(v)
        if got is not None:
            return got
        ds = right_descents(v)
        if not ds:
            result = frozenset({()})
        else:
            acc = set()
            for i in ds:
                shorter = list(v)
                shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
                for word in words(tuple(shorter)):
                    acc.add(word + (i,))
            result = frozenset(acc)
        memo[v] = result
        return result

    return words(tuple(w))


def monk_rule(x, k) -> dict:
    """Monk's rule for S_x . S_{s_k}: one term per transposition across k
    that adds exactly one inversion.  Run x padded one degree up so no term
    escapes."""
    n = len(x)
    out = {}
    for a in range(1, k + 1):
        for b in range(k + 1, n + 1):
            t = list(x)
            t[a - 1], t[b - 1] = t[b - 1], t[a - 1]
            t = tuple(t)
            if inversions(t) == inversions(x) + 1:
                out[t] = 1
    return out


def act_simple_rules(i, gamma):
    """s_i on a canonical clan by the four rules of the weak_order module
    docstring, read off mate positions (1-indexed), then relabelled by first
    occurrence."""
    signs = ("+", "-")

    def mate(pos):
        others = (k for k in range(1, len(gamma) + 1) if k != pos)
        return next(k for k in others if gamma[k - 1] == gamma[pos - 1])

    a, b = gamma[i - 1], gamma[i]
    raw = list(gamma)
    if a in signs and b in signs and a != b:
        raw[i - 1] = raw[i] = "fresh"
    elif (
        (a in signs and b not in signs and mate(i + 1) > i + 1)
        or (a not in signs and b in signs and mate(i) < i)
        or (a not in signs and b not in signs and a != b and mate(i) < mate(i + 1))
    ):
        raw[i - 1], raw[i] = b, a
    else:
        return gamma
    names = {}
    return tuple(s if s in signs else names.setdefault(s, len(names) + 1) for s in raw)


def w_set_scan(gamma) -> list:
    """Every w in the length-codim(gamma) slice of S_n, in lexicographic
    order, whose action takes gamma to the dense clan."""
    p, q = clans.signature(gamma)
    n = p + q
    codim = n * (n - 1) // 2 - clans.orbit_dimension(gamma)
    dense = clans.dense_clan(p, q)
    return [
        w
        for w in permutations.enumerate_by_length(n, codim, guard=n)
        if weak_order.act(w, gamma) == dense
    ]


def expand_schubert_scan(poly) -> dict:
    """{w: coeff} with poly = sum coeff * S_w, greedily: scan the whole
    working polynomial for its right-to-left leader, read it as a Lehmer
    code and subtract that Schubert polynomial."""
    work = dict(poly.coeffs)
    out = {}
    while work:
        exps = max(work, key=lambda e: e[::-1])
        c = work[exps]
        lead = list(exps)
        while lead and lead[-1] == 0:
            lead.pop()
        w = permutations.code_to_perm(tuple(lead))
        out[w] = out.get(w, 0) + c
        for se, sc in oracle.schubert_poly(w, poly.arity).coeffs.items():
            newc = work.get(se, 0) - c * sc
            if newc:
                work[se] = newc
            else:
                work.pop(se, None)
        if exps in work:
            raise AssertionError("leading term failed to cancel")
    return out


def poly_mul(p, q):
    """The product of two MultiPolys of one arity, by tuple arithmetic:
    exponent tuples added entry by entry, at any degree."""
    if p.arity != q.arity:
        raise ValueError(f"arity mismatch: {p.arity} vs {q.arity}")
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return oracle.MultiPoly(p.arity, out)


def poly_sum(terms, m):
    """sum c * P over the (c, P) in terms, P in m variables, by tuple
    arithmetic."""
    out = {}
    for c, poly in terms:
        if poly.arity != m:
            raise ValueError(f"arity mismatch: {poly.arity} vs {m}")
        for exps, d in poly.coeffs.items():
            out[exps] = out.get(exps, 0) + c * d
    return oracle.MultiPoly(m, out)


def oracle_product_2n(x, y) -> dict:
    """S_x . S_y expanded in 2n - 1 variables, with the product taken by
    :func:`poly_mul` and no degree: the oracle's earlier layout, the
    reference for its n-variable and degree-n paths."""
    n = max(len(x), len(y))
    m = 2 * n - 1
    sx = oracle.schubert_poly(permutations.pad(x, n), m)
    sy = oracle.schubert_poly(permutations.pad(y, n), m)
    return oracle.expand_schubert(poly_mul(sx, sy))


def leading_exponent(poly):
    """Greatest exponent vector in right-to-left lexicographic order."""
    if not poly.coeffs:
        return None
    return max(poly.coeffs, key=lambda e: e[::-1])


def vars_needed_scan(coeffs) -> int:
    """Index of the last variable any monomial actually uses."""
    needed = 0
    for exps in coeffs:
        for i in range(len(exps) - 1, needed - 1, -1):
            if exps[i]:
                needed = max(needed, i + 1)
                break
    return needed


def reconstruct(expansion, m):
    """Sum coeff * S_w back into a polynomial by :func:`poly_sum`; exact
    inverse of expansion."""
    return poly_sum(((c, oracle.schubert_poly(w, m)) for w, c in expansion.items()), m)


@pytest.fixture(scope="session")
def golden_table():
    """The shipped 20-row golden table; single source of truth for it."""
    text = resources.files("schubert_clans").joinpath("data/table1.json").read_text()
    return json.loads(text)
