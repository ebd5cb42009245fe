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
scan of the whole working polynomial for each output term.  Inside this
module an exponent vector is an int with one byte per variable, x_1 lowest:
int order is then the right-to-left order, multiplying by a monomial is an
integer addition, and a monomial is the same int at every arity.
oracle_product runs on these packed ints from start to finish: the cached
S_x and S_y, their product and the greedy's working polynomial are all
dicts keyed by packed monomials.  schubert_poly, multiply and
expand_schubert, which the benchmark reads and traces, wrap the same
kernels for the MultiPoly container: each packs, runs a kernel, unpacks.

A product of x, y in S_n needs n variables.  S_x and S_y lie in
Z[x_1..x_{n-1}], and the S_w with last descent at most n - 1 form a Z-basis
of that ring (Macdonald, Notes on Schubert Polynomials, 1991), so every
S_w in the product fits in n variables too.  The paper's constants are
the terms with w in S_n, and those alone are computed modulo the ideal
I_n = (e_1, ..., e_n) of Z[x_1..x_n]: the S_w with w outside S_n and last
descent at most n span I_n, and the S_w with w in S_n are a basis modulo
I_n, so the S_n coefficients do not depend on which element of I_n the
greedy subtracts.  A leader x^a in the staircase box (a_i <= n - i for
all i) is x^code(w) for some w in S_n and is cancelled by S_w as above.
Any other leader has a smallest k with a_k >= N = n - k + 1 and is
cancelled by x^(a - N e_k) h_N(x_1..x_k): the complete homogeneous
polynomial h_N(x_1..x_k) is S_w for a w outside S_n with last descent k,
so it lies in I_n, and the product's leader is x^a with coefficient 1.
Z[x_1..x_n] / I_n is 0 above degree n(n-1)/2, so a longer product has no
S_n part at all.

Most of those ideal steps need not happen.  For k <= n, x_k is a root of
prod_i (t - x_i) = t^n - e_1 t^(n-1) + ... + (-1)^n e_n, so x_k^n lies in
I_n, and so does every monomial with an exponent >= n.  For n <= 128 the
degree-n greedy drops such a monomial when it comes off the heap instead
of reducing it, and never inserts one when it subtracts an element of
I_n; it thereby subtracts another element of I_n, which removes
monomials and adds none, so the leaders stay in heap order.  The test is
one add and one AND on the packed int, sound while every byte stays
below 128 + n (see _expand_packed); past n = 128 its bias would be
negative, so larger degrees keep every monomial.

The degree-n path cuts sharper than that, on one standard fact: the S_n
part of S_x . S_y is nonzero exactly when x <= w0 y in Bruhat order.
Z[x_1..x_n] / I_n is the cohomology ring of the flag variety, where
S_x . S_y is the class of a Richardson variety, and that variety is
nonempty (and its class then nonzero) exactly when x <= w0 y.  Since
l(x) <= l(w0 y) = n(n-1)/2 - l(y) then, this cut contains the one by
degree.  The package assumes the fact but does not take it on trust: the
tier-1 tests run the greedy without the cut on every pair of S_1..S_5 and
on seeded S_7 and S_8 pairs, and check that its S_n part is nonempty
exactly when the Bruhat test passes.

Everything is exact: coefficients are Python ints and the divided
difference is computed monomial by monomial as a geometric sum, so no
rational intermediates ever appear.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Iterable, Mapping

from . import guards, permutations
from .permutations import Perm

ExpVec = tuple[int, ...]


class MultiPoly:
    """Sparse multivariate polynomial with a fixed variable count: a
    validated map from exponent tuples of length ``arity`` to nonzero ints.

    A container for the oracle's wrappers, immutable by convention and
    with no arithmetic of its own; :func:`multiply` is its product.
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}, {self.coeffs})"

    @classmethod
    def _raw(cls, arity: int, coeffs: dict[ExpVec, int]) -> "MultiPoly":
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.coeffs = coeffs
        return poly


def multiply(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact product; arities must agree.

    Taken on packed monomials, so the product's degree must stay below
    256, the most a packed exponent holds.
    """
    if p.arity != q.arity:
        raise ValueError(f"arity mismatch: {p.arity} vs {q.arity}")
    _require_byte_degree(max(map(sum, p.coeffs), default=0) + max(map(sum, q.coeffs), default=0))
    return MultiPoly._raw(p.arity, _unpack(_multiply_packed(_pack_coeffs(p), _pack_coeffs(q)), p.arity))


def _multiply_packed(p: Mapping[int, int], q: Mapping[int, int]) -> dict[int, int]:
    """multiply on packed monomials; the product's exponents must fit a byte."""
    qs = list(q.items())
    out: dict[int, int] = {}
    for v1, c1 in p.items():
        for v2, c2 in qs:
            key = v1 + v2
            newc = out.get(key, 0) + c1 * c2
            if newc:
                out[key] = newc
            else:
                del out[key]
    return out


def _divdiff(coeffs: Mapping[int, int], k: int) -> dict[int, int]:
    """(P - s_i P) / (x_i - x_(i+1)) on packed monomials, i = k + 1: x_i^a
    x_(i+1)^b goes to x_i^(a-1) x_(i+1)^b + ... + x_i^b x_(i+1)^(a-1) for
    a > b, to the mirrored negative sum for a < b, and to 0 for a = b."""
    shift = 8 * k
    step = 255 << shift  # x_(k+1)^-1 x_(k+2), packed
    out: dict[int, int] = {}
    for v, c in coeffs.items():
        a, b = (v >> shift) & 255, (v >> (shift + 8)) & 255
        if a == b:
            continue
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        key = v + ((hi - 1 - a) << shift) + ((lo - b) << (shift + 8))
        for _ in range(hi - lo):
            newc = out.get(key, 0) + sign
            if newc:
                out[key] = newc
            else:
                del out[key]
            key += step
    return out


# Schubert polynomials by trimmed w, packed.  Neither S_w nor a packed
# monomial depends on the number of variables, so one entry serves every m.
_SCHUBERT_CACHE: guards.BoundedStore[Perm, dict[int, int]] = guards.BoundedStore()
# Most monomials, about 78 B each, the cache keeps between oracle_product
# calls (oldest out first); an n = 8 sweep leaves 620,383, about 49 MB.
SCHUBERT_CACHE_MAX_MONOMIALS = 2_000_000


def clear_schubert_cache() -> None:
    """Empty the Schubert polynomial cache that oracle calls share."""
    _SCHUBERT_CACHE.clear()


def schubert_cache_size() -> int:
    """The number of polynomials in the shared Schubert polynomial cache."""
    return len(_SCHUBERT_CACHE)


def _schubert_coeffs(w: Perm) -> dict[int, int]:
    """Packed coefficients of S_w for trimmed w; the caller must not mutate
    them.  S_w = d_i S_{w s_i} for the first ascent i, so walk up by first
    ascents to a cached S_v or to w0 of S_len(w), whose S is the staircase
    monomial, then apply the divided differences back down, caching every
    step.  A loop, since the walk takes l(w0) - l(w) steps."""
    cached = _SCHUBERT_CACHE.get(w)
    if cached is not None:
        return cached
    d, path, result = len(w), [], None
    while result is None:
        ascent = next((i for i in range(d - 1) if w[i] < w[i + 1]), None)
        if ascent is None:
            result = _SCHUBERT_CACHE.put(w, {_pack(range(d - 1, -1, -1)): 1})
        else:
            path.append((w, ascent))
            w = w[:ascent] + (w[ascent + 1], w[ascent]) + w[ascent + 2:]
            result = _SCHUBERT_CACHE.get(w)
    for w, ascent in reversed(path):
        result = _SCHUBERT_CACHE.put(w, _divdiff(result, ascent))
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
    permutations.require_perm("w", w)
    wt = permutations.trim(w)
    needed = _last_descent(wt)
    if m < needed:
        raise ValueError(f"S_{permutations.format_perm(w)} uses {needed} variables, m = {m} is too small")
    return MultiPoly._raw(m, _unpack(_schubert_coeffs(wt), m))


def _pack(exps: Iterable[int]) -> int:
    """An exponent vector as an int, one byte per variable with x_1 lowest.
    Int order is then right-to-left lexicographic order, and multiplying
    two monomials adds their ints."""
    return int.from_bytes(bytes(exps), "little")


def _pack_coeffs(p: MultiPoly) -> dict[int, int]:
    """P's coefficients keyed by packed monomials (exponents must fit a byte)."""
    return {_pack(e): c for e, c in p.coeffs.items()}


def _unpack(coeffs: Mapping[int, int], m: int) -> dict[ExpVec, int]:
    """Packed coefficients as exponent tuples of length m (m must hold them)."""
    return {tuple(v.to_bytes(m, "little")): c for v, c in coeffs.items()}


@functools.lru_cache(maxsize=256)
def _box_reducer(k: int, n: int) -> tuple[int, ...]:
    """The monomials of x_k^(-N) h_N(x_1..x_k), N = n - k + 1 (k 1-indexed),
    packed.  Added to a packed leader x^a with a_k >= N they give the
    monomials of x^(a - N e_k) h_N(x_1..x_k), an element of I_n whose
    leader is x^a with coefficient 1."""
    big = n - k + 1
    lead = big << (8 * (k - 1))
    return tuple(
        sum(1 << (8 * i) for i in picks) - lead
        for picks in itertools.combinations_with_replacement(range(k), big)
    )


def _first_outside_box(exps: bytes, n: int) -> int | None:
    """The smallest 0-indexed i with exps[i] >= n - i, or None when exps
    lies in the staircase box, i.e. is the code of a permutation in S_n."""
    for i, e in enumerate(exps):
        if e >= n - i:
            return i
    return None


def expand_schubert(p: MultiPoly) -> dict[Perm, int]:
    """Write P as a sum of Schubert polynomials and return {w: coeff}.

    Greedy: the leading exponent vector is read as a Lehmer code, naming the
    next permutation to subtract.  Keys are trimmed permutations.  Products
    of Schubert polynomials give nonnegative coefficients; arbitrary input
    is allowed and may produce signed output.  Every monomial the greedy
    meets has the degree of one of P's, so P's degrees must stay below 256,
    the most a packed exponent holds.
    """
    _require_byte_degree(max(map(sum, p.coeffs), default=0))
    return _expand_packed(_pack_coeffs(p), p.arity, None)


def _require_byte_degree(degree: int) -> None:
    """Raise unless a polynomial of this degree fits packed monomials."""
    if degree > 255:
        raise ValueError(f"packed monomials hold degree at most 255, not {degree}")


def _expand_packed(work: dict[int, int], m: int, degree: int | None) -> dict[Perm, int]:
    """expand_schubert on packed monomials in m variables, consuming work.
    With a degree n >= m it keeps to S_n, working modulo I_n (module docstring).

    The leaders come off a heap, which the module docstring's fact makes
    sound: a key is pushed when it enters the working polynomial and
    skipped when it is popped after it has cancelled.  The elements of I_n
    obey the same fact.

    With a degree n <= 128 a monomial with an exponent >= n, which lies in
    I_n, is dropped as a leader and never inserted by an ideal step, so
    such monomials come only from work as given, and nothing changes them
    before they come off the heap.  Dropping them there rather than in a
    pass over work costs nothing on products that have none.  One add and
    one AND find them: with a byte of 128 - n added to each exponent, the
    top bit of a byte is set exactly when its exponent is >= n.  That
    holds while no byte carries, so work's exponents must stay below
    128 + n; they stay below 2n: S_x . S_y for x, y in S_n has them at
    most 2n - 2, the S_w steps (w in S_n) add monomials of the staircase
    box, and an ideal step adds at most n - 1 to an exponent below n.
    Past 128 the bias would be negative, so nothing is dropped there.
    """
    if degree is not None and degree <= 128:
        ones = int.from_bytes(b"\1" * m, "little")
        bias, mask = (128 - degree) * ones, 128 * ones
    else:
        bias = mask = 0
    heap = [-v for v in work]
    heapq.heapify(heap)
    out: dict[Perm, int] = {}
    while heap:
        v = -heapq.heappop(heap)
        c = work.get(v)
        if c is None:
            continue
        if (v + bias) & mask:
            del work[v]
            continue
        exps = v.to_bytes(m, "little")
        k = None if degree is None else _first_outside_box(exps, degree)
        if k is None:
            w = permutations.code_to_perm(tuple(exps.rstrip(b"\0")))
            out[w] = out.get(w, 0) + c
            for se, sc in _schubert_coeffs(w).items():
                drop, old = c * sc, work.get(se)
                if old is None:
                    work[se] = -drop
                    heapq.heappush(heap, -se)
                elif old == drop:
                    del work[se]
                else:
                    work[se] = old - drop
        else:
            # every monomial of the ideal element has coefficient 1
            for shift in _box_reducer(k + 1, degree):
                se = v + shift
                if (se + bias) & mask:
                    continue
                old = work.get(se)
                if old is None:
                    work[se] = -c
                    heapq.heappush(heap, -se)
                elif old == c:
                    del work[se]
                else:
                    work[se] = old - c
        if v in work:
            raise AssertionError("leading term failed to cancel")
    return out


def oracle_product(x: Perm, y: Perm, degree: int | None = None) -> dict[Perm, int]:
    """Expansion of S_x . S_y by multiplying actual polynomials.

    Both inputs are embedded in a common S_n and the computation runs in n
    variables, which hold every term (see the module docstring).  Keys are
    trimmed permutations and may leave S_n.  With a degree, at least n, only
    the terms in S_degree are computed, keyed as :func:`restrict_to_degree`
    keys them; that is the comparison against the clan rule.

    With a degree it returns {} before it builds or multiplies anything
    unless x <= w0 y in Bruhat order (w0 the longest element of S_degree),
    because the S_n part is nonzero exactly then (the Richardson variety is
    nonempty; see the module docstring).  That covers every pair with
    l(x) + l(y) above the length of w0.  The tier-1 tests check the fact by
    arithmetic against the uncut greedy.  The Schubert polynomials built on
    the way stay cached for later calls, up to SCHUBERT_CACHE_MAX_MONOMIALS
    monomials between calls; past that, the oldest polynomials go first.

    The work runs on packed monomials throughout, by the kernels behind
    multiply and expand_schubert; no MultiPoly is built.  The product has
    degree l(x) + l(y), which must stay below 256, as for expand_schubert.

    >>> oracle_product((2, 1, 3), (2, 1, 3))
    {(3, 1, 2): 1}
    >>> oracle_product((2, 1, 3), (2, 3, 1), 3)
    {(3, 2, 1): 1}
    >>> oracle_product((2, 1), (2, 1), 2)
    {}

    Here l(x) + l(y) = 3 is the length of w0, but 312 is not below
    w0 . 213 = 231, so the S_3 part is empty and nothing is multiplied:

    >>> oracle_product((3, 1, 2), (2, 1, 3), 3)
    {}
    >>> oracle_product((3, 1, 2), (2, 1, 3))
    {(4, 1, 2, 3): 1}
    """
    n = max(len(x), len(y)) if degree is None else degree
    xs = permutations.pad(x, n)
    ys = permutations.pad(y, n)
    permutations.require_perm("x", xs)
    permutations.require_perm("y", ys)
    if degree is not None and not permutations.bruhat_leq(xs, tuple(n + 1 - v for v in ys)):
        return {}
    # deg(S_x . S_y) = l(x) + l(y) <= n(n - 1), so only n >= 17 can pass a byte
    if n * (n - 1) > 255:
        _require_byte_degree(permutations.length(xs) + permutations.length(ys))
    sx = _schubert_coeffs(permutations.trim(xs))
    sy = _schubert_coeffs(permutations.trim(ys))
    expansion = _expand_packed(_multiply_packed(sx, sy), n, degree)
    _SCHUBERT_CACHE.trim(SCHUBERT_CACHE_MAX_MONOMIALS)
    return expansion if degree is None else restrict_to_degree(expansion, degree)


def restrict_to_degree(expansion: Mapping[Perm, int], n: int) -> dict[Perm, int]:
    """Keep only terms lying in S_n, with keys padded to degree n."""
    out = {}
    for w, c in expansion.items():
        wt = permutations.trim(w)
        if len(wt) <= n:
            out[permutations.pad(wt, n)] = c
    return out
