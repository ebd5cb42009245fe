"""
The dictionary between shuffle pairs and clans, and the product rule.

Fix block size p with q = n - p.  A pair (u, v) is admissible when u is a
descending shuffle at p (the values p..1 and n..p+1 each descend in its
one-line notation), v is an ascending shuffle at p, and u >= v in Bruhat
order.  Such pairs name exactly the Richardson varieties stable under the
block Levi GL(p) x GL(q), and each one carries a unique (p,q)-clan:

* both values <= p        -> '+'
* both values > p         -> '-'
* u(i) > p and v(i) <= p  -> open a new pair
* u(i) <= p and v(i) > p  -> close the most recently opened unmated pair

The LIFO closing rule makes the clan avoid the interleaved (1,2,1,2)
pattern, and the map is a bijection onto those clans (:func:`pair_of_clan`
inverts it).  The payoff is the product rule: writing x = w0 u, the
structure constant of S_w in S_x . S_v is 1 when w of the right length
drives the clan to the dense clan, and 0 otherwise, so the whole expansion
is multiplicity-free and :func:`special_product` just returns the w-set.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from . import clans, permutations, weak_order
from .clans import MINUS, PLUS, Clan
from .permutations import Perm


class ShufflePatternError(ValueError):
    """A permutation fails the descending/ascending shuffle precondition."""


class IncomparableError(ValueError):
    """u >= v fails, so the pair names an empty Richardson variety and the
    clan rule does not apply.  The polynomial oracle still handles the
    underlying product."""


def _require_shuffles(u: Perm, v: Perm, p: int) -> None:
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    if not 0 <= p <= len(u):
        raise ValueError(f"block size p must lie in 0..{len(u)}, got {p}")
    if not permutations.is_descending_shuffle(u, p):
        raise ShufflePatternError(
            f"u = {permutations.format_perm(u)} is not a descending shuffle at p = {p}: "
            f"the values <= {p} and the values > {p} must each appear in descending order"
        )
    if not permutations.is_ascending_shuffle(v, p):
        raise ShufflePatternError(
            f"v = {permutations.format_perm(v)} is not an ascending shuffle at p = {p}: "
            f"the values <= {p} and the values > {p} must each appear in ascending order"
        )


def shuffles_comparable(u: Perm, v: Perm, p: int) -> bool:
    """Whether u >= v, tested by prefix counts.

    With F(i) = #{j <= i : u(j) > p, v(j) <= p} and
    S(i) = #{j <= i : u(j) <= p, v(j) > p}, comparability of a shuffle pair
    is exactly F(i) >= S(i) for every i.  Agrees with the rank-matrix
    Bruhat test on all admissible pairs.
    """
    _require_shuffles(u, v, p)
    return _first_failing_prefix(u, v, p) is None


def _first_failing_prefix(u: Perm, v: Perm, p: int) -> tuple[int, int, int] | None:
    """The first i with F(i) < S(i), as (i, F(i), S(i)); None if u >= v."""
    first = second = 0
    for i, (uj, vj) in enumerate(zip(u, v), start=1):
        if uj > p and vj <= p:
            first += 1
        elif uj <= p and vj > p:
            second += 1
        if first < second:
            return i, first, second
    return None


def clan_of_pair(u: Perm, v: Perm, p: int) -> Clan:
    """The (p, n-p)-clan attached to an admissible pair.

    >>> clan_of_pair((3, 6, 5, 4, 2, 1), (1, 4, 2, 3, 5, 6), 3)
    ('+', '-', 1, 2, 2, 1)
    """
    _require_shuffles(u, v, p)
    failure = _first_failing_prefix(u, v, p)
    if failure is not None:
        i, first, second = failure
        raise IncomparableError(
            f"u = {permutations.format_perm(u)} is not >= v = {permutations.format_perm(v)}: "
            f"at prefix i = {i} there are {first} positions with u > {p} >= v "
            f"but {second} with v > {p} >= u; the pair names an empty Richardson "
            f"variety, so the clan rule does not apply (use the polynomial oracle "
            f"for the general product)"
        )
    symbols: list[clans.Symbol] = []
    open_stack: list[int] = []
    next_label = 1
    for uj, vj in zip(u, v):
        if uj <= p and vj <= p:
            symbols.append(PLUS)
        elif uj > p and vj > p:
            symbols.append(MINUS)
        elif uj > p:
            symbols.append(next_label)
            open_stack.append(next_label)
            next_label += 1
        elif open_stack:
            # second occurrence: most recent unmated label
            symbols.append(open_stack.pop())
        else:
            raise AssertionError("comparability check let an unmatchable closer through")
    # labels were opened in increasing order, so the tuple is canonical
    gamma = tuple(symbols)
    if open_stack or not clans.avoids_1212(gamma):
        raise AssertionError(f"clan_of_pair built a bad clan {clans.format_clan(gamma)}")
    return gamma


def pair_of_clan(gamma: Clan) -> tuple[Perm, Perm]:
    """Invert :func:`clan_of_pair` on a (1,2,1,2)-avoiding clan.

    u places p..1 on the pluses and second occurrences and n..p+1 on the
    minuses and first occurrences; v places 1..p on the pluses and first
    occurrences and p+1..n on the minuses and second occurrences.

    >>> pair_of_clan(('+', '-', 1, 2, 2, 1))
    ((3, 6, 5, 4, 2, 1), (1, 4, 2, 3, 5, 6))
    """
    if not clans.avoids_1212(gamma):
        raise ValueError(
            f"clan {clans.format_clan(gamma)} contains the interleaved pattern (1,2,1,2) "
            f"and is not the clan of any Richardson pair"
        )
    p, q = clans.signature(gamma)
    n = p + q
    pairs = clans.pair_positions(gamma)
    firsts = {first for first, _ in pairs.values()}
    seconds = {second for _, second in pairs.values()}

    u = [0] * n
    low, high = p, n  # next values for the two descending runs
    for pos, s in enumerate(gamma, start=1):
        if s == PLUS or pos in seconds:
            u[pos - 1] = low
            low -= 1
        else:
            u[pos - 1] = high
            high -= 1

    v = [0] * n
    low, high = 1, p + 1  # next values for the two ascending runs
    for pos, s in enumerate(gamma, start=1):
        if s == PLUS or pos in firsts:
            v[pos - 1] = low
            low += 1
        else:
            v[pos - 1] = high
            high += 1

    return tuple(u), tuple(v)


def special_product(x: Perm, y: Perm, p: int, guard: int | None = None) -> dict[Perm, int]:
    """Expand S_x . S_y in the Schubert basis via the clan rule.

    Admissibility is stated on the Richardson side: with u = w0 x, the pair
    (u, y) must be an admissible shuffle pair at p.  The expansion keys are
    the w-set of its clan, every coefficient is 1, and every key has length
    length(x) + length(y).
    """
    gamma = clan_of_pair(permutations.compose(permutations.longest(len(x)), x), y, p)
    expansion = weak_order.brion_class(gamma, guard=guard)
    want = permutations.length(x) + permutations.length(y)
    if any(permutations.length(w) != want for w in expansion):
        raise AssertionError(f"clan rule gave a term outside length {want}")
    return expansion


def structure_constant(x: Perm, y: Perm, w: Perm, p: int) -> int:
    """The coefficient of S_w in S_x . S_y for an admissible pair: 1 if w
    drives the pair's clan to the dense clan, else 0."""
    n = len(x)
    if len(w) != n:
        raise ValueError("x, y and w must share one degree")
    want = permutations.length(x) + permutations.length(y)
    if permutations.length(w) != want:
        raise ValueError(
            f"length(w) = {permutations.length(w)} but the product lives in length {want}"
        )
    gamma = clan_of_pair(permutations.compose(permutations.longest(n), x), y, p)
    pp, qq = clans.signature(gamma)
    return 1 if weak_order.act(w, gamma) == clans.dense_clan(pp, qq) else 0


def descending_shuffles(n: int, p: int) -> list[Perm]:
    """All C(n,p) descending shuffles at p, in lexicographic order."""
    return _shuffles(n, p, descending=True)


def ascending_shuffles(n: int, p: int) -> list[Perm]:
    """All C(n,p) ascending shuffles at p, in lexicographic order."""
    return _shuffles(n, p, descending=False)


def _shuffles(n: int, p: int, descending: bool) -> list[Perm]:
    if not 0 <= p <= n:
        raise ValueError(f"block size p must lie in 0..{n}")
    low = range(p, 0, -1) if descending else range(1, p + 1)
    high = range(n, p, -1) if descending else range(p + 1, n + 1)
    out = []
    for low_positions in combinations(range(n), p):
        w = [0] * n
        low_iter, high_iter = iter(low), iter(high)
        low_set = set(low_positions)
        for pos in range(n):
            w[pos] = next(low_iter) if pos in low_set else next(high_iter)
        out.append(tuple(w))
    return sorted(out)


def admissible_pairs(n: int, p: int) -> Iterator[tuple[Perm, Perm]]:
    """All comparable shuffle pairs (u, v) at p, lexicographically."""
    for u in descending_shuffles(n, p):
        for v in ascending_shuffles(n, p):
            if _first_failing_prefix(u, v, p) is None:
                yield u, v


def expansion_json_dict(x: Perm, y: Perm, p: int | None, expansion: dict[Perm, int]) -> dict:
    """The wire form of an expansion: terms sorted by one-line notation."""
    doc = {
        "x": permutations.format_perm(x),
        "y": permutations.format_perm(y),
        "terms": [
            {"w": permutations.format_perm(w), "coeff": expansion[w]}
            for w in sorted(expansion)
        ],
    }
    if p is not None:
        doc["p"] = p
    return doc
