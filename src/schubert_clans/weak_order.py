"""
The monoid action of simple reflections on clans and the weak order graph.

Each simple root index i in 1..n-1 either moves a clan up one dimension or
fixes it.  The moving cases, looking at the adjacent symbols (c_i, c_{i+1}):

* a sign then a number whose mate lies to the right: swap the two symbols;
* a number whose mate lies to the left, then a sign: swap;
* two unequal numbers, mate of the first left of mate of the second: swap;
* two opposite signs: replace both by a fresh matching pair.

The first three are "complex" swaps, the last is the non-compact imaginary
case.  Anything else fixes the clan.  Applying a word of indices right to
left gives the monoid action; on reduced words it is independent of the
word chosen, which lets :func:`act` pick a canonical one.

The weak order graph has all (p,q)-clans as nodes and one labeled edge per
non-fixing application.  Its sources are the sign-only clans, its unique
sink is the dense clan, and every edge raises orbit dimension by one.

Every edge is single.  For GL(p) x GL(q) in GL(p+q) each non-compact
imaginary root is of type I: its cross action (plainly exchanging the two
signs) moves the clan, so no double edge exists and Brion's weight
2^(#double edges on a path) is always 1.  That is a theorem, checked by
the test suite, not computed at run time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Iterator, Sequence

from . import clans, permutations
from .clans import Clan
from .guards import DEFAULT_PERM_GUARD, BoundedStore, check_guard
from .permutations import Perm


class RootType(enum.Enum):
    COMPLEX_SWAP = "complex-swap"
    NONCOMPACT_IMAGINARY = "noncompact-imaginary"
    FIXED = "fixed"


def classify_root(i: int, gamma: Clan) -> RootType:
    """Which action rule (if any) applies to gamma at index i."""
    if act_simple(i, gamma) is gamma:
        return RootType.FIXED
    if type(gamma[i - 1]) is str and type(gamma[i]) is str:
        return RootType.NONCOMPACT_IMAGINARY
    return RootType.COMPLEX_SWAP


def act_simple(i: int, gamma: Clan) -> Clan:
    """s_i acting on gamma by the rules of the module docstring; returns
    gamma itself in the fixed case, and a new tuple exactly when s_i moves
    gamma, so callers test ``is gamma``.

    >>> act_simple(2, ('+', '+', '-', '-'))
    ('+', 1, 1, '-')
    """
    if not 1 <= i < len(gamma):
        raise IndexError(f"root index must lie in 1..{len(gamma) - 1}, got {i}")
    a, b = gamma[i - 1], gamma[i]
    if type(a) is str:  # a sign: labels are ints
        if type(b) is str:
            if a == b:
                return gamma
            # opposite signs become a nested pair; 0 is a fresh label
            return clans.relabel(gamma[: i - 1] + (0, 0) + gamma[i + 1 :])
        if gamma.index(b) != i:  # b's pair must open at i+1
            return gamma
    elif type(b) is str:
        if gamma.index(a) >= i - 1:  # a's pair must close at i
            return gamma
    elif a == b:
        return gamma
    else:
        mate_a = clans.mate(gamma, i)
        if mate_a > clans.mate(gamma, i + 1):
            return gamma
        if mate_a > i:
            # both pairs open here, so their first occurrences trade places
            return clans.relabel(gamma[: i - 1] + (b, a) + gamma[i + 1 :])
    # no first occurrence changes order: the swapped tuple is canonical
    return gamma[: i - 1] + (b, a) + gamma[i + 1 :]


def act_word(word: Sequence[int], gamma: Clan) -> Clan:
    """Apply a word of simple-root indices, rightmost letter first.

    >>> act_word((2, 1, 3, 2, 3, 4), ('+', '-', '+', '-', '+'))
    (1, 2, '+', 2, 1)
    """
    for i in reversed(tuple(word)):
        gamma = act_simple(i, gamma)
    return gamma


def act(w: Perm, gamma: Clan) -> Clan:
    """The monoid action of the permutation w on gamma.

    Computed along one reduced word; any reduced word gives the same clan.
    """
    if len(w) != len(gamma):
        raise ValueError(f"degree mismatch: permutation in S_{len(w)}, clan of length {len(gamma)}")
    permutations.require_perm("w", w)
    return act_word(permutations.reduced_word(w), gamma)


@dataclass(frozen=True)
class WeakOrderGraph:
    """The weak order graph on (p,q)-clans.  Its edges are not stored:
    :func:`iter_edges` makes them one at a time."""

    p: int
    q: int
    nodes: tuple[Clan, ...]


def weak_order_graph(p: int, q: int, guard: int | None = None) -> WeakOrderGraph:
    """The full weak order graph on (p,q)-clans.

    One edge per (clan, root) that moves the clan.  Every edge is single
    (see the module docstring), so edges carry no multiplicity.  The clan
    guard is checked here, before any edge is made.
    """
    return WeakOrderGraph(p, q, tuple(clans.enumerate_clans(p, q, guard=guard)))


def iter_edges(graph: WeakOrderGraph) -> Iterator[tuple[Clan, Clan, int]]:
    """(src, dst, root) for every (clan, root) that moves the clan: clans in
    node order, roots ascending, one edge at a time."""
    roots = range(1, graph.p + graph.q)
    for gamma in graph.nodes:
        for i in roots:
            target = act_simple(i, gamma)
            if target is not gamma:
                yield gamma, target, i


def graph_dot(graph: WeakOrderGraph) -> Iterator[str]:
    """DOT text, one line at a time: nodes labeled by clan text, then edges
    labeled by their root index.  ``"".join(graph_dot(graph))`` is the file."""
    text = {g: clans.format_clan(g) for g in graph.nodes}
    yield "digraph weak_order {\n  rankdir=BT;\n"
    for label in text.values():
        yield f'  "{label}";\n'
    for src, dst, root in iter_edges(graph):
        yield f'  "{text[src]}" -> "{text[dst]}" [label={root}];\n'
    yield "}\n"


def graph_json_dict(graph: WeakOrderGraph) -> dict:
    """The graph as data for a JSON report: ``p``, ``q``, the ``nodes`` as
    clan text, and ``edges``, a one-shot iterator of ``(src, dst, root)``
    rows, clans as their text, in :func:`iter_edges` order.  A second read
    finds the edges empty.  The report's edge record is ``cli``'s."""
    text = {g: clans.format_clan(g) for g in graph.nodes}
    return {
        "p": graph.p,
        "q": graph.q,
        "nodes": list(text.values()),
        "edges": ((text[src], text[dst], root) for src, dst, root in iter_edges(graph)),
    }


# Brion's w-sets shared by every w_set call in the process, each stored as
# a sorted tuple.  A clan fixes (p, q), and an entry is written only once
# the full w-set of its clan is known, so any later call may reuse it.
_W_SET_TABLE: BoundedStore[Clan, tuple[Perm, ...]] = BoundedStore()
# Most permutations the shared table keeps between calls (oldest out first).
W_SET_TABLE_MAX_PERMS = 250_000


def clear_w_set_table() -> None:
    """Empty the w-set table that :func:`w_set` shares across calls."""
    _W_SET_TABLE.clear()


def w_set_table_size() -> int:
    """The number of permutations the shared w-set table stores."""
    return _W_SET_TABLE.weight


def _descend(gamma: Clan, dense: Clan, n: int) -> tuple[Perm, ...]:
    """W(gamma) from the table, computing and storing it, and the w-sets of
    the clans above it, when missing.  The clans open on the way up can
    outnumber the recursion limit, so each is a generator on a stack."""
    stack, got = [_climb(gamma, dense, n)], None
    while stack:
        try:
            stack.append(_climb(stack[-1].send(got), dense, n))
            got = None
        except StopIteration as done:
            stack.pop()
            got = done.value
    return got


def _climb(clan: Clan, dense: Clan, n: int) -> Generator[Clan, tuple[Perm, ...], tuple[Perm, ...]]:
    """W(clan), for :func:`_descend`: yields each clan above whose w-set is
    not stored, and is sent that w-set back."""
    got = _W_SET_TABLE.get(clan)
    if got is not None:
        return got
    if clan == dense:
        return _W_SET_TABLE.put(clan, (permutations.identity(n),))
    acc: set[Perm] = set()
    for i in range(1, n):
        up = act_simple(i, clan)
        if up is clan:
            continue
        for w in _W_SET_TABLE.get(up) or (yield up):
            if w[i - 1] > w[i]:
                # s_i raises the clan, so w.s_i is one longer than w
                raise RuntimeError(
                    f"w-set of {clans.format_clan(up)} holds {permutations.format_perm(w)}, "
                    f"which descends at root {i}, below {clans.format_clan(clan)}"
                )
            acc.add(w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :])
    return _W_SET_TABLE.put(clan, tuple(sorted(acc)))


def w_set(gamma: Clan, guard: int | None = None) -> list[Perm]:
    """All w of length codim(gamma) whose action takes gamma to the dense
    clan, in lexicographic one-line order.

    These index the Schubert classes appearing in the orbit closure's
    fundamental class.  Brion's paths give them by a descent through the
    clans above gamma:

        W(dense) = {e}
        W(gamma) = { w'.s_i : s_i moves gamma to gamma', w' in W(gamma'),
                     w'(i) < w'(i+1) }

    The last condition makes w'.s_i one longer than w'.  It always holds,
    so a w' that fails it raises RuntimeError.  The work grows
    with the clans visited, not with S_n; the perm guard still caps n, and
    is checked before any stored w-set is read.

    Every W(clan) the descent finishes goes into one table shared by all
    calls, so a sweep or a long-lived caller computes each clan once.  The
    table holds at most W_SET_TABLE_MAX_PERMS permutations between calls:
    past it, the oldest w-sets go first.  :func:`w_set_table_size` reports
    the permutations stored and :func:`clear_w_set_table` frees them.

    Any labeling of a clan is first normalized, so it gets its canonical
    clan's w-set; a sequence that is not a clan raises ValueError.

    >>> w_set((1, 2, 1, 2))
    [(1, 2, 4, 3), (2, 1, 3, 4)]
    """
    gamma = clans.normalize(gamma)
    p, q = clans.signature(gamma)
    n = p + q
    check_guard(n, guard, DEFAULT_PERM_GUARD, f"w_set over S_{n}")
    got = _descend(gamma, clans.dense_clan(p, q), n)
    _W_SET_TABLE.trim(W_SET_TABLE_MAX_PERMS)
    return list(got)


def brion_class(gamma: Clan, guard: int | None = None) -> dict[Perm, int]:
    """Schubert-basis expansion of the orbit closure's class: each w in the
    w-set contributes 2^(#double edges on its path), which is 1 since all
    edges are single."""
    return dict.fromkeys(w_set(gamma, guard=guard), 1)
