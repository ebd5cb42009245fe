"""
(p,q)-clans: strings of +, - and paired number labels.

A clan of type (p,q) is a tuple of n = p + q symbols in which every number
label occurs exactly twice and #plus - #minus = p - q.  Only the positions
of matching labels matter, so (1,2,1,2), (2,1,2,1) and (5,7,5,7) are the
same clan.  We keep a unique representative: labels are 1, 2, 3, ... in
order of first occurrence, and every function in this package returns
clans in that canonical form.  Equality and hashing of the plain tuples
then implement clan equality.  Clans are validated only where they come in:
:func:`normalize`, :func:`parse_clan`, ``weak_order.w_set``,
``weak_order.act_word`` (and so ``act``) and ``richardson.pair_of_clan``
normalize any labeling and raise ValueError on a non-clan.  The rest,
``weak_order.act_simple``, ``classify_root`` and the counting functions
among them, trust the canonical tuples they are given and rebuild them
with the unchecked :func:`relabel`.

The counting functions ``gamma_plus``, ``gamma_minus`` and ``gamma_cross``,
the clan length and the orbit dimension are the combinatorial invariants of
the GL(p) x GL(q) orbit on the flag variety that the clan encodes.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Union

from .guards import DEFAULT_CLAN_GUARD, check_guard

PLUS = "+"
MINUS = "-"

Symbol = Union[int, str]
Clan = tuple[Symbol, ...]


def normalize(symbols: Iterable[Symbol]) -> Clan:
    """Validate a raw symbol sequence and relabel pairs by first occurrence.

    >>> normalize((5, "+", 7, 7, 5))
    (1, '+', 2, 2, 1)
    """
    raw = tuple(symbols)
    if not raw:
        raise ValueError("a clan needs length >= 1")
    counts: dict[int, int] = {}
    for s in raw:
        if s in (PLUS, MINUS):
            continue
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"bad clan symbol {s!r}; want '+', '-' or a positive integer")
        counts[s] = counts.get(s, 0) + 1
    bad = [label for label, c in counts.items() if c != 2]
    if bad:
        raise ValueError(f"unmatched pair label(s) {sorted(bad)}: each number must occur exactly twice")
    return relabel(raw)


def relabel(symbols: Iterable[Symbol]) -> Clan:
    """Rename pair labels 1, 2, 3, ... by first occurrence, unchecked.

    The trusted inner step of :func:`normalize`, for symbol sequences that
    are clans by construction.

    >>> relabel((5, "+", 7, 7, 5))
    (1, '+', 2, 2, 1)
    """
    names: dict[int, int] = {}
    out: list[Symbol] = []
    for s in symbols:
        if isinstance(s, str):  # a sign: a clan's other symbols are ints
            out.append(s)
        else:
            if s not in names:
                names[s] = len(names) + 1
            out.append(names[s])
    return tuple(out)


def signature(gamma: Clan) -> tuple[int, int]:
    """The (p, q) type: p = #plus + #pairs, q = #minus + #pairs."""
    plus = sum(1 for s in gamma if s == PLUS)
    minus = sum(1 for s in gamma if s == MINUS)
    npairs = (len(gamma) - plus - minus) // 2
    return plus + npairs, minus + npairs


def parse_clan(text: str, p: int | None = None, q: int | None = None) -> Clan:
    """Parse clan text, normalizing labels.

    Accepts the parenthesized form ``(1,2,+,2,1)`` and, when every label is
    a single digit, the compact form ``12+21``.  ASCII ``-`` and the unicode
    minus sign are both fine.  If p and q are given, the clan must have that
    type.

    >>> parse_clan("(2,1,2,1)", 2, 2)
    (1, 2, 1, 2)
    """
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    if "," in cleaned:
        tokens = [tok.strip() for tok in cleaned.split(",")]
    else:
        tokens = list(cleaned)
    symbols: list[Symbol] = []
    for tok in tokens:
        if tok in (PLUS, MINUS):
            symbols.append(tok)
        elif tok in ("−", "–"):  # unicode minus / en-dash
            symbols.append(MINUS)
        elif tok.isdecimal() and int(tok) >= 1:
            symbols.append(int(tok))
        else:
            raise ValueError(f"bad clan token {tok!r} in {text!r}")
    gamma = normalize(symbols)
    if p is not None or q is not None:
        got = signature(gamma)
        if (p is not None and got[0] != p) or (q is not None and got[1] != q):
            want = f"p = {p}" if q is None else f"q = {q}" if p is None else (p, q)
            raise ValueError(f"clan {format_clan(gamma)} has type {got}, expected {want}")
    return gamma


def format_clan(gamma: Clan) -> str:
    """Render a clan as text; inverse of :func:`parse_clan`."""
    return "(" + ",".join(map(str, gamma)) + ")"


def pair_positions(gamma: Clan) -> dict[int, tuple[int, int]]:
    """Map each label to its (first, second) 1-indexed positions."""
    seen: dict[int, int] = {}
    pairs: dict[int, tuple[int, int]] = {}
    for pos, s in enumerate(gamma, start=1):
        if s in (PLUS, MINUS):
            continue
        if s in seen:
            pairs[s] = (seen[s], pos)
        else:
            seen[s] = pos
    return pairs


def mate(gamma: Clan, pos: int) -> int | None:
    """Position of the other endpoint of the pair at ``pos`` (1-indexed),
    or None if the symbol there is a sign."""
    s = gamma[pos - 1]
    if s in (PLUS, MINUS):
        return None
    first = gamma.index(s) + 1
    return gamma.index(s, pos) + 1 if pos == first else first


def gamma_plus(gamma: Clan, i: int) -> int:
    """Plus signs plus *completed* pairs among the first i symbols.

    >>> [gamma_plus((1, '+', 1, '-'), i) for i in (1, 2, 3, 4)]
    [0, 1, 2, 2]
    """
    _check_pos(gamma, i)
    return gamma[:i].count(PLUS) + _pairs_closed_by(gamma, i)


def gamma_minus(gamma: Clan, i: int) -> int:
    """Minus signs plus completed pairs among the first i symbols.

    >>> [gamma_minus((1, '+', 1, '-'), i) for i in (1, 2, 3, 4)]
    [0, 0, 1, 2]
    """
    _check_pos(gamma, i)
    return gamma[:i].count(MINUS) + _pairs_closed_by(gamma, i)


def gamma_cross(gamma: Clan, i: int, j: int) -> int:
    """Number of pairs straddling the window: endpoints s <= i < j < t."""
    n = len(gamma)
    if not (1 <= i < j <= n):
        raise IndexError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return sum(
        1 for first, second in pair_positions(gamma).values() if first <= i and second > j
    )


def _check_pos(gamma: Clan, i: int) -> None:
    if not 1 <= i <= len(gamma):
        raise IndexError(f"position {i} out of range 1..{len(gamma)}")


def _pairs_closed_by(gamma: Clan, i: int) -> int:
    return sum(1 for _, second in pair_positions(gamma).values() if second <= i)


def clan_length(gamma: Clan) -> int:
    """l(gamma) = sum over pairs (i, j) of j - i - #{pairs (s, t): s < i < t < j}.

    Sign-only clans have length 0; the dense clan is the unique maximum.
    """
    pairs = list(pair_positions(gamma).values())
    total = 0
    for i, j in pairs:
        crossing = sum(1 for s, t in pairs if s < i < t < j)
        total += j - i - crossing
    return total


def orbit_dimension(gamma: Clan) -> int:
    """Dimension of the orbit: dim of the GL(p) x GL(q) flag variety plus l(gamma)."""
    p, q = signature(gamma)
    return (p * (p - 1) + q * (q - 1)) // 2 + clan_length(gamma)


def dense_clan(p: int, q: int) -> Clan:
    """The clan of the dense open orbit: (1, 2, ..., m, sign^|p-q|, m, ..., 2, 1)
    with m = min(p, q), the middle filled by p-q pluses or q-p minuses.

    >>> dense_clan(3, 2)
    (1, 2, '+', 2, 1)
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"need p, q >= 0 with p + q >= 1, got ({p}, {q})")
    m = min(p, q)
    middle = [PLUS if p >= q else MINUS] * abs(p - q)
    return tuple(list(range(1, m + 1)) + middle + list(range(m, 0, -1)))


def avoids_1212(gamma: Clan) -> bool:
    """True iff no two pairs interleave, i.e. each second occurrence closes
    the most recently opened pair still open.  These are exactly the clans
    whose orbit closures are Richardson varieties."""
    open_labels: list[int] = []
    for s in gamma:
        if s in (PLUS, MINUS):
            continue
        if s not in open_labels:
            open_labels.append(s)
        elif open_labels.pop() != s:
            return False
    return True


def is_sign_only(gamma: Clan) -> bool:
    """True iff gamma has no pairs; these clans mark the closed orbits."""
    return all(s in (PLUS, MINUS) for s in gamma)


def enumerate_clans(p: int, q: int, guard: int | None = None) -> list[Clan]:
    """All (p,q)-clans, canonical, each exactly once.

    Order is the lexicographic DFS order over the symbol choices
    + < - < open-new-pair < close-of-label-1 < close-of-label-2 < ...
    which keeps golden files stable.  The clan guard caps the symbols
    listed, count_clans(p, q) * (p + q), and is checked before any clan
    is made.  The DFS walks an explicit stack, so no shape is too long
    for it, and two tail rules end a branch early: with only closings
    left the rest is every order of the open labels, and with one kind
    of sign left and no pair open the rest is forced.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"need p, q >= 0 with p + q >= 1, got ({p}, {q})")
    n = p + q
    what = f"enumeration of ({p},{q})-clans"
    # n * C(n, min(p, q)), the symbols of count_clans's k = 0 term, is a
    # lower bound.  Checked as it grows a factor at a time, C(n, i) at least
    # doubling, it passes any guard within a few steps, so a huge shape is
    # refused before count_clans works through its big integers.
    least = n
    check_guard(least, guard, DEFAULT_CLAN_GUARD, what, at_least=True)
    for i in range(1, min(p, q) + 1):
        least = least * (n + 1 - i) // i
        check_guard(least, guard, DEFAULT_CLAN_GUARD, what, at_least=True)
    check_guard(count_clans(p, q) * n, guard, DEFAULT_CLAN_GUARD, what)

    out: list[Clan] = []
    # (symbols, p_left, q_left, pairs, open_labels): a pair takes one of the
    # pluses and one of the minuses left, and open_labels is ascending
    stack: list[tuple[Clan, int, int, int, tuple[int, ...]]] = [((), p, q, 0, ())]
    while stack:
        symbols, p_left, q_left, pairs, open_labels = stack.pop()
        if not p_left and not q_left:
            # permutations of an ascending tuple come in the DFS's order
            out.extend(symbols + rest for rest in itertools.permutations(open_labels))
        elif not open_labels and not (p_left and q_left):
            out.append(symbols + (PLUS,) * p_left + (MINUS,) * q_left)
        else:
            # pushed last-first, so the choices come off in the order above
            for i in reversed(range(len(open_labels))):
                rest = open_labels[:i] + open_labels[i + 1 :]
                stack.append((symbols + (open_labels[i],), p_left, q_left, pairs, rest))
            if p_left and q_left:
                new = pairs + 1
                stack.append((symbols + (new,), p_left - 1, q_left - 1, new, open_labels + (new,)))
            if q_left:
                stack.append((symbols + (MINUS,), p_left, q_left - 1, pairs, open_labels))
            if p_left:
                stack.append((symbols + (PLUS,), p_left - 1, q_left, pairs, open_labels))
    return out


def count_clans(p: int, q: int) -> int:
    """Closed-form count: sum over k pairs of C(n,2k) (2k-1)!! C(n-2k, p-k).

    Independent of :func:`enumerate_clans`: the clan guard sizes a listing
    by it before any clan is made, and the tests cross-check the two.
    """
    n = p + q
    total = 0
    matchings = 1  # (2k-1)!!, the ways to pair 2k positions
    for k in range(min(p, q) + 1):
        total += comb(n, 2 * k) * matchings * comb(n - 2 * k, p - k)
        matchings *= 2 * k + 1
    return total
