"""
Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package internals:
inversions by double loop, Bruhat order by transitive closure of covering
transpositions, Monk's rule by explicit transposition moves.  Tests compare
the library against these, never the library against itself.  The
exceptions are :func:`w_set_scan`, the w-set by its definition, built from
the package's action and length slices, and :func:`expand_schubert_scan`,
the greedy Schubert expansion by a full scan for each leader, built from the
package's Schubert polynomials; those pieces are tested on their own.
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


@pytest.fixture(scope="session")
def golden_table():
    """The shipped 20-row golden table; single source of truth for it."""
    text = resources.files("schubert_clans").joinpath("data/table1.json").read_text()
    return json.loads(text)
