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

One left-to-right walk gives both the comparability test and the clan: a
shuffle pair has u >= v exactly when every closer finds an open pair.  The
LIFO closing rule makes the clan avoid the interleaved (1,2,1,2) pattern,
and the map is a bijection onto those clans (:func:`pair_of_clan` inverts
it).  The payoff is the product rule: writing x = w0 u, the structure
constant of S_w in S_x . S_v is 1 when w of the right length drives the
clan to the dense clan, and 0 otherwise, so the whole expansion is
multiplicity-free and :func:`special_product` just returns the w-set.
"""

from __future__ import annotations

from itertools import combinations, product
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


def _require_shuffles(u: Perm, v: Perm, p: int, x: Perm | None = None) -> None:
    """Check the degrees, that u and v are permutations and both shuffle
    patterns; the first shuffle test checks the block size.  On the product
    side x is the factor with u = w0 x and v is y; the errors then name x
    and y, the permutations the caller gave."""
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    permutations.require_perm("u", u)
    permutations.require_perm("v" if x is None else "y", v)
    if not permutations.is_descending_shuffle(u, p):
        if x is None:
            what = f"u = {permutations.format_perm(u)} is not a descending shuffle at p = {p}"
        else:
            what = (
                f"x = {permutations.format_perm(x)} is not admissible at p = {p}: "
                f"u = w0 x = {permutations.format_perm(u)} is not a descending shuffle"
            )
        raise ShufflePatternError(
            f"{what}: the values <= {p} and the values > {p} must each appear in descending order"
        )
    if not permutations.is_ascending_shuffle(v, p):
        raise ShufflePatternError(
            f"{'v' if x is None else 'y'} = {permutations.format_perm(v)} is not an ascending "
            f"shuffle at p = {p}: the values <= {p} and the values > {p} must each appear "
            f"in ascending order"
        )


def shuffles_comparable(u: Perm, v: Perm, p: int) -> bool:
    """Whether u >= v, tested by prefix counts.

    With F(i) = #{j <= i : u(j) > p, v(j) <= p} and
    S(i) = #{j <= i : u(j) <= p, v(j) > p}, comparability of a shuffle pair
    is exactly F(i) >= S(i) for every i.  Agrees with the rank-matrix
    Bruhat test on every shuffle pair; criterion 6 of the acceptance tests
    checks this through n = 6.
    """
    _require_shuffles(u, v, p)
    return _walk(u, v, p)[1] is None


def _walk(u: Perm, v: Perm, p: int) -> tuple[Clan | None, tuple[int, int, int] | None]:
    """Read the shuffle pair once, left to right: (clan, None) when u >= v,
    else (None, (i, F(i), S(i))) at the first closer with no open pair."""
    symbols: list[clans.Symbol] = []
    open_stack: list[int] = []
    opened = 0
    for uj, vj in zip(u, v):
        if uj <= p:
            if vj <= p:
                symbols.append(PLUS)
            elif open_stack:
                # second occurrence: most recent unmated label
                symbols.append(open_stack.pop())
            else:
                return None, (len(symbols) + 1, opened, opened + 1)
        elif vj <= p:
            opened += 1
            symbols.append(opened)
            open_stack.append(opened)
        else:
            symbols.append(MINUS)
    if open_stack:
        raise AssertionError(f"the pair walk left a pair open in {clans.format_clan(tuple(symbols))}")
    # labels were opened in increasing order, so the tuple is canonical
    return tuple(symbols), None


def clan_of_pair(u: Perm, v: Perm, p: int) -> Clan:
    """The (p, n-p)-clan attached to an admissible pair.

    >>> clan_of_pair((3, 6, 5, 4, 2, 1), (1, 4, 2, 3, 5, 6), 3)
    ('+', '-', 1, 2, 2, 1)
    """
    _require_shuffles(u, v, p)
    return _clan(u, v, p)


def _clan(u: Perm, v: Perm, p: int) -> Clan:
    gamma, failure = _walk(u, v, p)
    if failure is not None:
        i, first, second = failure
        raise IncomparableError(
            f"u = {permutations.format_perm(u)} is not >= v = {permutations.format_perm(v)}: "
            f"at prefix i = {i} there are {first} positions with u > {p} >= v "
            f"but {second} with v > {p} >= u; the pair names an empty Richardson "
            f"variety, so the clan rule does not apply (use the polynomial oracle "
            f"for the general product)"
        )
    if not clans.avoids_1212(gamma):
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
    # the next value of each run: u descends in both blocks, v ascends
    u_low, u_high = iter(range(p, 0, -1)), iter(range(n, p, -1))
    v_low, v_high = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
    u: list[int] = []
    v: list[int] = []
    seen: set[int] = set()
    for s in gamma:
        if s == PLUS or s == MINUS:
            low_in_u = low_in_v = s == PLUS
        else:
            low_in_u = s in seen  # a second occurrence
            low_in_v = not low_in_u
            seen.add(s)
        u.append(next(u_low if low_in_u else u_high))
        v.append(next(v_low if low_in_v else v_high))
    return tuple(u), tuple(v)


def _product_clan(x: Perm, y: Perm, p: int) -> Clan:
    """The clan of the pair (w0 x, y) behind S_x . S_y."""
    permutations.require_perm("x", x)
    u = permutations.compose(permutations.longest(len(x)), x)
    _require_shuffles(u, y, p, x=x)
    return _clan(u, y, p)


def special_product(x: Perm, y: Perm, p: int, guard: int | None = None) -> dict[Perm, int]:
    """Expand S_x . S_y in the Schubert basis via the clan rule.

    Admissibility is stated on the Richardson side: with u = w0 x, the pair
    (u, y) must be an admissible shuffle pair at p.  The expansion keys are
    the w-set of its clan, every coefficient is 1, and every key has length
    length(x) + length(y).
    """
    gamma = _product_clan(x, y, p)
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
    permutations.require_perm("w", w)
    want = permutations.length(x) + permutations.length(y)
    if permutations.length(w) != want:
        raise ValueError(
            f"length(w) = {permutations.length(w)} but the product lives in length {want}"
        )
    gamma = _product_clan(x, y, p)
    pp, qq = clans.signature(gamma)
    return 1 if weak_order.act(w, gamma) == clans.dense_clan(pp, qq) else 0


def descending_shuffles(n: int, p: int) -> list[Perm]:
    """All C(n,p) descending shuffles at p (ascending ones read backwards), sorted."""
    return sorted(w[::-1] for w in ascending_shuffles(n, p))


def ascending_shuffles(n: int, p: int) -> list[Perm]:
    """All C(n,p) ascending shuffles at p, in lexicographic order."""
    if not 0 <= p <= n:
        raise ValueError(f"block size p must lie in 0..{n}, got {p}")
    out = []  # low values are below high ones, so combinations() order is lexicographic
    for low_positions in combinations(range(n), p):
        w = [0] * n
        low_iter, high_iter = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
        low_set = set(low_positions)
        for pos in range(n):
            w[pos] = next(low_iter) if pos in low_set else next(high_iter)
        out.append(tuple(w))
    return out


def admissible_pairs(n: int, p: int) -> Iterator[tuple[Perm, Perm]]:
    """All comparable shuffle pairs (u, v) at p, lexicographically."""
    for u, v in product(descending_shuffles(n, p), ascending_shuffles(n, p)):
        if _walk(u, v, p)[1] is None:
            yield u, v
