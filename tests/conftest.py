"""
Shared brute-force oracles and reference algorithms for the test suite.

Everything here is deliberately independent of the package internals:
inversions by double loop, Bruhat order by transitive closure of covering
transpositions and by rank matrices, Monk's rule by explicit transposition
moves, reduced words by recursion on descents, polynomial products and
sums by tuple arithmetic (:func:`poly_mul`, :func:`poly_sum`), and the
divided difference by its definition (:func:`divided_difference`).  Tests
compare the library against these, never the library against itself.
Schubert polynomials come from the staircase by that divided difference
(:func:`schubert_reference`), and on them rest :func:`expand_schubert_scan`
and :func:`reconstruct`, the greedy Schubert expansion by a full scan for
each leader and its inverse, and :func:`oracle_product_2n`, the oracle in
2n - 1 variables; none of them calls the oracle's code, and
``oracle.MultiPoly`` is only their container.  The exception is
:func:`w_set_scan`, the w-set by its definition, built from the package's
action and length slices.  :func:`avoids_1212_pairwise` is the pattern
test by its definition, every two pairs compared.  :func:`clans_by_matching`
lists the (p,q)-clans from matchings of positions and signs on the rest,
and :func:`dfs_rank` is the key that sorts them into the listing's order.
:func:`packed_divdiff` and :func:`packed_expand` are no references: they
hand a ``MultiPoly`` to the oracle's private kernels, for the tests that
pin properties of those kernels.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from importlib import resources
from pathlib import Path

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


def avoids_1212_pairwise(gamma) -> bool:
    """No two pairs of gamma at positions s1 < s2 < t1 < t2, by testing
    every two pairs."""
    positions = {}
    for pos, s in enumerate(gamma):
        if s not in ("+", "-"):
            positions.setdefault(s, []).append(pos)
    pairs = list(positions.values())
    return not any(s1 < s2 < t1 < t2 for s1, t1 in pairs for s2, t2 in pairs)


def _matchings(positions):
    """Every perfect matching of the tuple positions, as a tuple of pairs."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for j, other in enumerate(rest):
        for matching in _matchings(rest[:j] + rest[j + 1 :]):
            yield ((first, other),) + matching


def clans_by_matching(p, q) -> list:
    """Every (p,q)-clan, in no set order: for each k, each 2k positions
    matched every way, the rest given p - k pluses and q - k minuses, and
    the labels put through clans.normalize."""
    n = p + q
    out = []
    for k in range(min(p, q) + 1):
        for paired in itertools.combinations(range(n), 2 * k):
            rest = [i for i in range(n) if i not in paired]
            for matching in _matchings(paired):
                for plus in itertools.combinations(rest, p - k):
                    raw = ["+" if i in plus else "-" for i in range(n)]
                    for label, (a, b) in enumerate(matching, start=1):
                        raw[a] = raw[b] = label
                    out.append(clans.normalize(raw))
    return out


def dfs_rank(gamma) -> tuple:
    """Position by position: 0 for '+', 1 for '-', 2 for a first occurrence
    and 3 + i for closing the i-th smallest label still open."""
    open_labels = []
    key = []
    for s in gamma:
        if s == "+" or s == "-":
            key.append("+-".index(s))
        elif s in open_labels:
            key.append(3 + open_labels.index(s))
            open_labels.remove(s)
        else:
            key.append(2)
            open_labels.append(s)
    return tuple(key)


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
    code and subtract that Schubert polynomial, from
    :func:`schubert_reference`."""
    # keyed by reversed exponent tuples, so max() finds the leader
    work = {exps[::-1]: c for exps, c in poly.coeffs.items()}
    out = {}
    while work:
        rev = max(work)
        c = work[rev]
        lead = list(rev[::-1])
        while lead and lead[-1] == 0:
            lead.pop()
        w = permutations.code_to_perm(tuple(lead))
        out[w] = out.get(w, 0) + c
        for se, sc in schubert_reference(w, poly.arity).items():
            se = se[::-1]
            newc = work.get(se, 0) - c * sc
            if newc:
                work[se] = newc
            else:
                work.pop(se, None)
        if rev in work:
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


def divided_difference(i, poly):
    """(P - s_i P) / (x_i - x_{i+1}) on P = poly, a dict {exponent tuple:
    int}, by its definition: s_i P swaps x_i and x_{i+1}, and the quotient
    comes by long division in x_i, which must leave no remainder."""
    num = dict(poly)
    for exps, c in poly.items():
        swapped = exps[: i - 1] + (exps[i], exps[i - 1]) + exps[i + 1 :]
        num[swapped] = num.get(swapped, 0) - c
    num = {exps: c for exps, c in num.items() if c}
    quotient = {}
    while num:
        # x^a = x^(a - e_i) (x_i - x_{i+1}) + x^(a - e_i + e_{i+1}): dividing
        # every term of top degree in x_i leaves terms one degree lower
        top = max(exps[i - 1] for exps in num)
        for lead in [exps for exps in num if exps[i - 1] == top]:
            c = num.pop(lead)
            if not top:
                raise ArithmeticError(f"x_{i} - x_{i + 1} leaves the remainder {c} x^{lead}")
            down = lead[: i - 1] + (top - 1,) + lead[i:]
            quotient[down] = quotient.get(down, 0) + c
            across = down[:i] + (down[i] + 1,) + down[i + 1 :]
            num[across] = num.get(across, 0) + c
            if not num[across]:
                del num[across]
    return {exps: c for exps, c in quotient.items() if c}


# S_w by trim(w), in len(trim(w)) variables
_SCHUBERT_REFERENCE: dict = {}


def schubert_reference(w, m) -> dict:
    """S_w in m variables as {exponent tuple: int}, by the definition: the
    staircase x_1^(k-1) x_2^(k-2) ... x_(k-1) is S_(w0) in S_k, with
    k = len(trim(w)), and S_w = d_i S_(w s_i) at the first ascent i of w,
    by :func:`divided_difference`.  Memoized by trim(w)."""
    up = permutations.trim(tuple(w))
    k = len(up)
    chain = []
    while up not in _SCHUBERT_REFERENCE and up != tuple(range(k, 0, -1)):
        i = next(i for i in range(1, k) if up[i - 1] < up[i])
        chain.append((up, i))
        up = up[: i - 1] + (up[i], up[i - 1]) + up[i + 1 :]
    poly = _SCHUBERT_REFERENCE.setdefault(up, {tuple(range(k - 1, -1, -1)): 1})
    for v, i in reversed(chain):
        poly = _SCHUBERT_REFERENCE[v] = divided_difference(i, poly)
    if any(exps[m:] != (0,) * (k - m) for exps in poly):
        raise ValueError(f"S_{tuple(w)} needs more than m = {m} variables")
    return {exps[:m] + (0,) * (m - k): c for exps, c in poly.items()}


def _packed(poly):
    return {oracle._pack(exps): c for exps, c in poly.coeffs.items()}


def packed_divdiff(i, poly):
    """The oracle's kernel _divdiff as the operator d_i on a MultiPoly."""
    m = poly.arity
    out = oracle._divdiff(_packed(poly), i - 1)
    return oracle.MultiPoly(m, {tuple(v.to_bytes(m, "little")): c for v, c in out.items()})


def packed_expand(poly, degree):
    """The oracle's greedy kernel _expand_packed on a MultiPoly, keeping
    only the terms in S_degree."""
    return oracle._expand_packed(_packed(poly), poly.arity, degree)


def oracle_product_2n(x, y) -> dict:
    """S_x . S_y expanded in 2n - 1 variables from :func:`schubert_reference`,
    with the product taken by :func:`poly_mul`, the expansion by
    :func:`expand_schubert_scan` and no degree: the reference for the
    oracle's n-variable and degree-n paths, sharing none of its code."""
    n = max(len(x), len(y))
    m = 2 * n - 1
    sx, sy = (oracle.MultiPoly(m, schubert_reference(w, m)) for w in (x, y))
    return expand_schubert_scan(poly_mul(sx, sy))


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
    return poly_sum(
        ((c, oracle.MultiPoly(m, schubert_reference(w, m))) for w, c in expansion.items()), m
    )


def load_tool(name):
    """The script tools/<name>.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def golden_table():
    """The shipped 20-row golden table; single source of truth for it."""
    text = resources.files("schubert_clans").joinpath("data/table1.json").read_text()
    return json.loads(text)
