"""
Safety guards for the enumerative operations.

Everything in this package is exact and exhaustive, so the cost of an
operation is governed by how many objects it enumerates.  Two guards put a
ceiling on that: the perm guard on the n of a w-set or a length slice of
S_n, and the clan guard on the p + q of a clan enumeration.  Exceeding a
guard raises :class:`GuardError`, never silently truncates.

Each guard has a safe default, can be overridden per call (every guarded
function takes a ``guard=`` argument), and can be raised globally through an
environment variable for users who want to trade time for scale.
"""

from __future__ import annotations

import os

PERM_GUARD_ENV = "SCHUBERT_CLANS_PERM_GUARD"
CLAN_GUARD_ENV = "SCHUBERT_CLANS_CLAN_GUARD"

# Largest n for which w_set may run on a clan of length n, and for which
# enumerate_by_length may list a length slice of S_n.
DEFAULT_PERM_GUARD = 10
# Largest p+q for which the set of (p,q)-clans may be enumerated.
DEFAULT_CLAN_GUARD = 12


class GuardError(RuntimeError):
    """An enumeration was refused because it exceeds its size guard."""


def resolve_guard(value: int | None, env_var: str, default: int) -> int:
    """Effective guard: explicit argument wins, then environment, then default."""
    if value is not None:
        return value
    raw = os.environ.get(env_var)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise GuardError(f"{env_var} must be an integer, got {raw!r}") from None
    return default


def check_guard(size: int, limit: int, what: str) -> None:
    if size > limit:
        raise GuardError(
            f"{what} needs size {size}, above the guard {limit}; "
            f"raise the guard explicitly if this is intended"
        )
