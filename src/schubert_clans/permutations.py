"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is a plain tuple ``(w(1), ..., w(n))`` of the values 1..n.
Values and positions are 1-indexed throughout, so ``w[i - 1]`` is w(i).
Degrees are explicit: ``(2, 1)`` and ``(2, 1, 3)`` are different objects;
use :func:`pad` and :func:`trim` to move between S_n and S_m.

Text form is the compact digit string ``"35241"`` for n <= 9 and the
comma-separated ``"3,5,2,4,1"`` for larger n; both are accepted on input.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from .guards import DEFAULT_PERM_GUARD, check_guard

Perm = tuple[int, ...]


def require_perm(name: str, w: Perm) -> None:
    """Raise ValueError naming the argument ``name`` unless w lists each
    of 1..n exactly once."""
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{name} = {format_perm(w)} is not a permutation of 1..{len(w)}")


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The order-reversing permutation w0, i.e. i -> n+1-i.

    >>> longest(5)
    (5, 4, 3, 2, 1)
    """
    return identity(n)[::-1]


def compose(a: Perm, b: Perm) -> Perm:
    """Functional composition: ``compose(a, b)(i) == a(b(i))``.

    >>> compose((5, 4, 3, 2, 1), (3, 5, 2, 4, 1))
    (3, 1, 4, 2, 5)
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    require_perm("a", a)
    require_perm("b", b)
    return tuple([a[v - 1] for v in b])


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Whether u <= v in Bruhat order, by the tableau criterion: for every
    k, the values u(1..k) sorted lie entrywise at or below v(1..k) sorted.

    >>> bruhat_leq((1, 3, 2), (3, 1, 2)), bruhat_leq((2, 3, 1), (3, 1, 2))
    (True, False)
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    require_perm("u", u)
    require_perm("v", v)
    low: list[int] = []
    high: list[int] = []
    for a, b in zip(u[:-1], v[:-1]):
        bisect.insort(low, a)
        bisect.insort(high, b)
        if any(x > y for x, y in zip(low, high)):
            return False
    return True


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions, i.e. pairs i < j with w(i) > w(j)."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def code(w: Perm) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i | w(j) < w(i)}; the entries sum to length(w).

    >>> code((3, 1, 4, 2, 5))
    (2, 0, 1, 0, 0)
    """
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


def code_to_perm(c: Sequence[int]) -> Perm:
    """Inverse of :func:`code`, in the smallest symmetric group that fits.

    The degree m is minimal with m >= len(c) and c_i <= m - i, so codes with
    trailing zeros round-trip: ``code_to_perm(code(w)) == w``.

    >>> code_to_perm((2, 0, 1, 0, 0))
    (3, 1, 4, 2, 5)
    >>> code_to_perm((4, 3, 2, 1))
    (5, 4, 3, 2, 1)
    """
    c = tuple(c)
    if any(x < 0 for x in c):
        raise ValueError("code entries must be nonnegative")
    m = max([len(c), 1] + [x + i for i, x in enumerate(c, start=1)])
    full = c + (0,) * (m - len(c))
    remaining = list(range(1, m + 1))
    return tuple(remaining.pop(ci) for ci in full)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A canonical reduced word for w: repeatedly strip the leftmost descent.

    The returned word (i_1, ..., i_k) satisfies k == length(w) and
    s_{i_1} o ... o s_{i_k} == w.

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    """
    cur = list(w)
    peeled = []
    while True:
        i = next((i for i in range(1, len(cur)) if cur[i - 1] > cur[i]), None)
        if i is None:
            break
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
        peeled.append(i)
    return tuple(reversed(peeled))


def is_descending_shuffle(w: Perm, p: int) -> bool:
    """True iff the values <= p and the values > p each appear in
    descending order in w, i.e. w read backwards is an ascending shuffle."""
    return is_ascending_shuffle(w[::-1], p)


def is_ascending_shuffle(w: Perm, p: int) -> bool:
    """True iff the values <= p and the values > p each appear in
    ascending order in the one-line notation of w."""
    if not 0 <= p <= len(w):
        raise ValueError(f"block size p must lie in 0..{len(w)}, got {p}")
    low = [x for x in w if x <= p]
    high = [x for x in w if x > p]
    return low == sorted(low) and high == sorted(high)


def enumerate_by_length(n: int, k: int, guard: int | None = None) -> list[Perm]:
    """All w in S_n with length(w) == k, in lexicographic one-line order.

    Walks Lehmer codes (c_1, ..., c_n) with 0 <= c_i <= n-i summing to k;
    code order and one-line order agree, so no sort is needed.
    """
    check_guard(n, guard, DEFAULT_PERM_GUARD, f"enumerate_by_length over S_{n}")
    if k < 0 or k > n * (n - 1) // 2:
        return []
    # a prefix carries what it has left to place; later positions add <= room
    prefixes: list[tuple[tuple[int, ...], int]] = [((), k)]
    for i in range(n):
        room = (n - 1 - i) * (n - 2 - i) // 2
        prefixes = [
            (prefix + (x,), left - x)
            for prefix, left in prefixes
            for x in range(max(0, left - room), min(n - 1 - i, left) + 1)
        ]
    return [code_to_perm(prefix) for prefix, _ in prefixes]


def trim(w: Perm) -> Perm:
    """Drop trailing fixed points, keeping at least degree 1.

    >>> trim((2, 1, 3, 4))
    (2, 1)
    """
    n = len(w)
    while n > 1 and w[n - 1] == n:
        n -= 1
    return tuple(w[:n])


def pad(w: Perm, n: int) -> Perm:
    """Embed w into S_n by appending fixed points."""
    if n < len(w):
        raise ValueError(f"cannot pad degree {len(w)} down to {n}")
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def parse_perm(text: str, name: str = "w") -> Perm:
    """Parse one-line notation, compact (``35241``) or comma-separated;
    errors name the argument ``name``.

    >>> parse_perm("3,5,2,4,1")
    (3, 5, 2, 4, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
    else:
        parts = list(text)
    try:
        w = tuple([int(part) for part in parts])
    except ValueError:
        raise ValueError(f"cannot parse {name} from {text!r}") from None
    require_perm(name, w)
    return w


def format_perm(w: Perm) -> str:
    """Compact digit string for n <= 9, comma-separated beyond."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)
