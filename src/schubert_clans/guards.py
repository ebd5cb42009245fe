"""
Safety guards for the enumerative operations.

Everything in this package is exact and exhaustive, so the cost of an
operation is governed by how many objects it enumerates.  Two guards put a
ceiling on that: the perm guard on the n of a w-set or a length slice of
S_n, and the clan guard on the symbols a clan enumeration lists, that is
count_clans(p, q) clans of p + q symbols each, known before any is made
(a shape far past the cap is refused on a cheap lower bound first).
Exceeding a guard raises :class:`GuardError`, never silently truncates.

Each guard has a safe default and can be overridden per call: every
guarded function takes a ``guard=`` argument, and the CLI passes its
``--perm-guard`` / ``--clan-guard`` options through.  The caches that
live across calls are bounded too, each by a :class:`BoundedStore`.
"""

from __future__ import annotations

from collections import OrderedDict

# Largest n for which w_set may run on a clan of length n, and for which
# enumerate_by_length may list a length slice of S_n.
DEFAULT_PERM_GUARD = 10
# Most symbols, count_clans(p, q) * (p + q), that a clan enumeration may
# list: a million clans of length 12.  The largest shape with p + q <= 12,
# (6, 6), lists 845,691 clans, 10,148,292 symbols.
DEFAULT_CLAN_GUARD = 12_000_000


class GuardError(RuntimeError):
    """An enumeration was refused because it exceeds its size guard."""


def check_guard(size: int, guard: int | None, default: int, what: str,
                at_least: bool = False) -> None:
    """Raise GuardError if size exceeds the guard (the default when None).
    at_least marks size as a lower bound in the message."""
    limit = default if guard is None else guard
    if size > limit:
        needs = f"at least {size}" if at_least else size
        raise GuardError(
            f"{what} needs size {needs}, above the guard {limit}; "
            f"raise the guard explicitly if this is intended"
        )


class BoundedStore(OrderedDict):
    """Finished results shared across calls, each weighed by len(value).
    trim(bound) evicts the oldest, by insertion order, until the weight is
    at most bound.  Threads may share a store: results stay exact and trim
    does not raise, but the weight may drift."""

    weight = 0

    def put(self, key, value):
        self[key] = value
        self.weight += len(value)
        return value

    def clear(self) -> None:
        super().clear()
        self.weight = 0

    def trim(self, bound: int) -> None:
        while self.weight > bound:
            try:
                self.weight -= len(self.popitem(last=False)[1])
            except KeyError:  # another thread emptied the store
                self.weight = 0
