"""
Safety guards for the enumerative operations.

Everything in this package is exact and exhaustive, so the cost of an
operation is governed by how many objects it enumerates.  Two guards put a
ceiling on that: the perm guard on the n of a w-set or a length slice of
S_n, and the clan guard on the p + q of a clan enumeration.  Exceeding a
guard raises :class:`GuardError`, never silently truncates.

Each guard has a safe default and can be overridden per call: every
guarded function takes a ``guard=`` argument, and the CLI passes its
``--perm-guard`` / ``--clan-guard`` options through.
"""

from __future__ import annotations

# Largest n for which w_set may run on a clan of length n, and for which
# enumerate_by_length may list a length slice of S_n.
DEFAULT_PERM_GUARD = 10
# Largest p+q for which the set of (p,q)-clans may be enumerated.
DEFAULT_CLAN_GUARD = 12


class GuardError(RuntimeError):
    """An enumeration was refused because it exceeds its size guard."""


def check_guard(size: int, guard: int | None, default: int, what: str) -> None:
    """Raise GuardError if size exceeds the guard (the default when None)."""
    limit = default if guard is None else guard
    if size > limit:
        raise GuardError(
            f"{what} needs size {size}, above the guard {limit}; "
            f"raise the guard explicitly if this is intended"
        )
