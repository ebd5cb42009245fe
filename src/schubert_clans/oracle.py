"""
Schubert calculus over exact integer polynomials.

This module is the independent verifier for the clan rule: it knows nothing
about clans and expands arbitrary products S_x . S_y by actual polynomial
arithmetic.  Schubert polynomials are built by divided differences from the
staircase monomial x1^(m-1) x2^(m-2) ... x_{m-1}, and a product is expanded
back into the basis by greedy subtraction of leading terms.

The greedy step leans on one structural fact, enforced by test rather than
assumed: ordering monomials right-to-left lexicographically (compare
exponent vectors from the last coordinate), the leading monomial of S_w is
x^code(w) with coefficient 1, and every other monomial of S_w lies below
it.  Subtracting coeff * S_w therefore strictly shrinks the leading term,
the exponent-to-code bijection names the next basis element for free, and
no subtraction adds a monomial above the current leader.  The last point
lets the leaders come off a heap filled as monomials appear, instead of a
scan of the whole working polynomial for each output term.

Everything is exact: coefficients are Python ints and the divided
difference is computed monomial by monomial as a geometric sum, so no
rational intermediates ever appear.
"""

from __future__ import annotations

import heapq
import operator
from typing import Mapping

from . import permutations
from .permutations import Perm

ExpVec = tuple[int, ...]


class MultiPoly:
    """Sparse multivariate polynomial with a fixed variable count.

    Immutable by convention; all arithmetic returns new objects and zero
    coefficients are never stored.
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: Mapping[ExpVec, int] | None = None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.arity = arity
        clean: dict[ExpVec, int] = {}
        for exps, c in (coeffs or {}).items():
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} does not have arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if c:
                clean[tuple(exps)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: 1})

    @classmethod
    def variable(cls, i: int, arity: int) -> "MultiPoly":
        """The variable x_i (1-indexed)."""
        if not 1 <= i <= arity:
            raise IndexError(f"variable index must lie in 1..{arity}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(arity))
        return cls(arity, {exps: 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            newc = out.get(exps, 0) + c
            if newc:
                out[exps] = newc
            else:
                out.pop(exps, None)
        return MultiPoly._raw(self.arity, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.arity, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.arity)
            return MultiPoly._raw(self.arity, {e: c * other for e, c in self.coeffs.items()})
        self._check_arity(other)
        out: dict[ExpVec, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(map(operator.add, e1, e2))
                newc = out.get(key, 0) + c1 * c2
                if newc:
                    out[key] = newc
                else:
                    del out[key]
        return MultiPoly._raw(self.arity, out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.coeffs:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.coeffs, key=lambda e: (sum(e), e), reverse=True):
            c = self.coeffs[exps]
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return "MultiPoly(" + " + ".join(bits) + ")"

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    @classmethod
    def _raw(cls, arity: int, coeffs: dict[ExpVec, int]) -> "MultiPoly":
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.coeffs = coeffs
        return poly


def multiply(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact product; arities must agree."""
    return p * q


def divided_difference(i: int, p: MultiPoly) -> MultiPoly:
    """The operator (P - s_i P) / (x_i - x_{i+1}), which always divides exactly.

    Monomial-wise: x_i^a x_{i+1}^b with a > b maps to the geometric sum
    x_i^(a-1) x_{i+1}^b + x_i^(a-2) x_{i+1}^(b+1) + ... + x_i^b x_{i+1}^(a-1),
    with the mirrored negative sum for a < b and 0 for a = b.
    """
    if not 1 <= i <= p.arity - 1:
        raise IndexError(f"divided difference index must lie in 1..{p.arity - 1}")
    return MultiPoly._raw(p.arity, _divdiff_dict(p.coeffs, i - 1))


def _divdiff_dict(coeffs: Mapping[ExpVec, int], k: int) -> dict[ExpVec, int]:
    """divided_difference on a raw coefficient dict; k is 0-indexed."""
    out: dict[ExpVec, int] = {}
    for exps, c in coeffs.items():
        a, b = exps[k], exps[k + 1]
        if a == b:
            continue
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        base = list(exps)
        for t in range(hi - lo):
            base[k] = hi - 1 - t
            base[k + 1] = lo + t
            key = tuple(base)
            newc = out.get(key, 0) + sign
            if newc:
                out[key] = newc
            else:
                del out[key]
    return out


# Cache of Schubert polynomials for trimmed permutations, stored at arity
# equal to the degree; stability lets callers pad or trim from there.  The
# last variable never survives into a cached polynomial, but the divided
# differences pass through monomials that use it, so the slot must exist.
_SCHUBERT_CACHE: dict[Perm, dict[ExpVec, int]] = {}
# Most entries the cache keeps between oracle_product calls: a call that
# leaves more clears it.  An n = 8 sweep leaves 8870 entries of about 10 kB
# each, so the cap sits well above any sweep and near 200 MB at that size.
SCHUBERT_CACHE_MAX_ENTRIES = 20_000


def _schubert_min(w: Perm) -> dict[ExpVec, int]:
    """Coefficients of S_w at arity len(w), for w with no trailing fixed
    point.  Recursion: peel the first ascent i via S_w = d_i S_{w s_i},
    bottoming out at the staircase monomial for w0."""
    cached = _SCHUBERT_CACHE.get(w)
    if cached is not None:
        return cached
    d = len(w)
    ascent = next((i for i in range(d - 1) if w[i] < w[i + 1]), None)
    if ascent is None:
        result = {tuple(d - 1 - i for i in range(d)): 1}
    else:
        up = list(w)
        up[ascent], up[ascent + 1] = up[ascent + 1], up[ascent]
        result = _divdiff_dict(_schubert_min(tuple(up)), ascent)
    _SCHUBERT_CACHE[w] = result
    return result


def _last_descent(w: Perm) -> int:
    """The last i with w(i) > w(i+1), or 0 for the identity.  S_w lies in
    Z[x_1..x_k] exactly when k >= i (Macdonald, Notes on Schubert
    Polynomials), so i is the number of variables S_w uses."""
    return next((i for i in range(len(w) - 1, 0, -1) if w[i - 1] > w[i]), 0)


def schubert_poly(w: Perm, m: int) -> MultiPoly:
    """The Schubert polynomial of w in m variables.

    Stable in m: any m large enough to hold the variables S_w actually uses
    gives the same polynomial, so trailing fixed points of w are irrelevant.
    Raises ValueError when m is too small.
    """
    if not permutations.is_perm(w):
        raise ValueError(f"{w} is not a permutation")
    wt = permutations.trim(w)
    coeffs = _schubert_min(wt)
    needed = _last_descent(wt)
    if m < needed:
        raise ValueError(f"S_{permutations.format_perm(w)} uses {needed} variables, m = {m} is too small")
    if m == len(wt):
        return MultiPoly._raw(m, dict(coeffs))
    return MultiPoly._raw(m, {e[:m] + (0,) * (m - len(e[:m])): c for e, c in coeffs.items()})


def expand_schubert(p: MultiPoly) -> dict[Perm, int]:
    """Write P as a sum of Schubert polynomials and return {w: coeff}.

    Greedy: the leading exponent vector is read as a Lehmer code, naming the
    next permutation to subtract.  Keys are trimmed permutations.  Products
    of Schubert polynomials give nonnegative coefficients; arbitrary input
    is allowed and may produce signed output.

    The leaders come off a heap, which the module docstring's fact makes
    sound: a key is pushed when it enters the working polynomial and
    skipped when it is popped after it has cancelled.
    """
    work = dict(p.coeffs)
    heap = [(_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    out: dict[Perm, int] = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        c = work.get(exps)
        if c is None:
            continue
        lead = list(exps)
        while lead and lead[-1] == 0:
            lead.pop()
        w = permutations.code_to_perm(tuple(lead))
        out[w] = out.get(w, 0) + c
        for se, sc in schubert_poly(w, p.arity).coeffs.items():
            drop = c * sc
            old = work.get(se)
            if old is None:
                work[se] = -drop
                heapq.heappush(heap, (_heap_key(se), se))
            elif old == drop:
                del work[se]
            else:
                work[se] = old - drop
        if exps in work:
            raise AssertionError("leading term failed to cancel")
    return out


def _heap_key(exps: ExpVec) -> ExpVec:
    """Sort key under which heapq's minimum is the right-to-left leader."""
    return tuple(map(operator.neg, reversed(exps)))


def oracle_product(x: Perm, y: Perm) -> dict[Perm, int]:
    """Expansion of S_x . S_y by multiplying actual polynomials.

    Both inputs are embedded in a common S_n; the computation runs in
    m = 2n - 1 variables, which holds the entire support of the product.
    Keys are trimmed permutations and may leave S_n; use
    :func:`restrict_to_degree` for the comparison against the clan rule.
    The Schubert polynomials built on the way stay cached for later calls,
    up to SCHUBERT_CACHE_MAX_ENTRIES of them between calls.

    >>> oracle_product((2, 1, 3), (2, 1, 3))
    {(3, 1, 2): 1}
    """
    n = max(len(x), len(y))
    xs = permutations.pad(x, n)
    ys = permutations.pad(y, n)
    m = 2 * n - 1
    product = multiply(schubert_poly(xs, m), schubert_poly(ys, m))
    expansion = expand_schubert(product)
    if len(_SCHUBERT_CACHE) > SCHUBERT_CACHE_MAX_ENTRIES:
        _SCHUBERT_CACHE.clear()
    return expansion


def restrict_to_degree(expansion: Mapping[Perm, int], n: int) -> dict[Perm, int]:
    """Keep only terms lying in S_n, with keys padded to degree n."""
    out = {}
    for w, c in expansion.items():
        wt = permutations.trim(w)
        if len(wt) <= n:
            out[permutations.pad(wt, n)] = c
    return out
