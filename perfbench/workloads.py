"""Seeded passes and output checks for the three workloads.

Why each workload exists (the same sentences are in BENCHMARK.json):

* product_verify -- the paper's own use: the clan rule checked by the
  oracle.  ``weak_order.w_set`` does almost all the work, while the oracle
  cache stays warm across ops as for a sweeping caller.
* oracle_product -- the oracle alone, from a cold cache as a fresh CLI call
  pays it; the clan modules do none of the work and the cost has a heavy
  tail.
* graph_export -- the clan primitives over every clan and root plus the
  JSON and DOT formatters, without ``w_set`` or the oracle.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from harness import call_cli, clear_oracle_cache


class Op(NamedTuple):
    argv: tuple[str, ...]
    # what the output check needs to know about the op
    facts: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable  # (pkg, random.Random) -> list[Op]
    check: Callable  # (pkg, Op, stdout) -> problem text or None
    warmup: tuple[str, ...]
    cold_oracle: bool  # clear the oracle cache before every op


# -- product_verify ----------------------------------------------------------

# (n, pairs drawn per pass).  The cost of one product is set almost entirely
# by n and the product length l(x) + l(y), which fixes the length slice of
# S_n that w_set scans.  Pairs are therefore sorted by that length and taken
# at an even stride from a seeded offset: every admissible pair is equally
# likely, and every seed gets the same spread of lengths.
PRODUCT_SAMPLE = ((6, 24), (7, 96), (8, 6))
# The extremes at n = 8, always included: the sign-only clan (one output
# term, the largest scan) and the alternating clan (105 output terms).
PRODUCT_FIXED_CLANS = (("+",) * 4 + ("-",) * 4, ("+", "-") * 4)


def _product_op(perms, x, y, p) -> Op:
    argv = ("product", "--x", perms.format_perm(x), "--y", perms.format_perm(y),
            "--p", str(p), "--verify")
    return Op(argv, ())


def product_verify_ops(pkg, rng) -> list[Op]:
    perms, rich = pkg.permutations, pkg.richardson
    ops = []
    for n, count in PRODUCT_SAMPLE:
        w0 = perms.longest(n)
        pairs = []
        for p in range(1, n):
            for u, v in rich.admissible_pairs(n, p):
                x = perms.compose(w0, u)
                pairs.append((perms.length(x) + perms.length(v), p, x, v))
        pairs.sort()
        stride = len(pairs) / count
        offset = rng.random() * stride
        for k in range(count):
            _, p, x, v = pairs[int(offset + k * stride)]
            ops.append(_product_op(perms, x, v, p))
    for gamma in PRODUCT_FIXED_CLANS:
        u, v = rich.pair_of_clan(gamma)
        x = perms.compose(perms.longest(len(gamma)), u)
        ops.append(_product_op(perms, x, v, pkg.clans.signature(gamma)[0]))
    rng.shuffle(ops)
    return ops


def check_product(pkg, op, out):
    verdict = json.loads(out).get("verdict")
    return None if verdict == "match" else f"verdict {verdict!r}, want 'match'"


# -- oracle_product ----------------------------------------------------------

# Arbitrary pairs from S_7 and S_8.  One product costs roughly in proportion
# to |S_x| * |S_y| (monomial counts), which spans five orders of magnitude,
# so uniform pairs would give each seed a very different total.  Instead a
# seeded pool of permutations is sized with the oracle, and a fixed number
# of pairs is drawn uniformly from each band floor(log2(|S_x| * |S_y|)) up to
# the top band named here.
ORACLE_POOL = 200
ORACLE_TOP_BAND = {7: 11, 8: 10}
ORACLE_PER_BAND = 64
# Heavy-tail products above the bands, always included (S_8, 212 and 32
# terms in S_8).
ORACLE_FIXED = (("17432865", "51468237"), ("17432865", "25483167"))


def oracle_product_ops(pkg, rng) -> list[Op]:
    perms = pkg.permutations
    pairs = []
    for n, top in ORACLE_TOP_BAND.items():
        pool = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(ORACLE_POOL)]
        size = {w: len(pkg.oracle.schubert_poly(w, 2 * n - 1).coeffs) for w in pool}
        bands: list[list] = [[] for _ in range(top + 1)]
        for x in pool:
            for y in pool:
                band = (size[x] * size[y]).bit_length() - 1
                if band <= top:
                    bands[band].append((x, y))
        for cands in bands:
            if len(cands) >= ORACLE_PER_BAND:
                pairs += rng.sample(cands, ORACLE_PER_BAND)
            elif cands:
                pairs += rng.choices(cands, k=ORACLE_PER_BAND)
    clear_oracle_cache(pkg)
    ops = [
        Op(("oracle-product", "--x", perms.format_perm(x), "--y", perms.format_perm(y)),
           (perms.format_perm(x), perms.format_perm(y)))
        for x, y in pairs
    ]
    ops += [Op(("oracle-product", "--x", x, "--y", y), (x, y)) for x, y in ORACLE_FIXED]
    rng.shuffle(ops)
    return ops


def check_oracle(pkg, op, out):
    perms = pkg.permutations
    x, y = op.facts
    want = perms.length(perms.parse_perm(x)) + perms.length(perms.parse_perm(y))
    terms = json.loads(out)["output"]["terms"]
    for term in terms:
        got = perms.length(perms.parse_perm(term["w"]))
        if got != want or term["coeff"] <= 0:
            return f"term {term} has length {got} (want {want}) or a non-positive coefficient"
    status, swapped, _, error = call_cli(
        pkg.cli.main, ("oracle-product", "--x", y, "--y", x))
    if status != 0:
        return f"swapped product exited {status}: {error}"
    if json.loads(swapped)["output"]["terms"] != terms:
        return "S_y * S_x differs from S_x * S_y"
    return None


# -- graph_export ------------------------------------------------------------

# Every (p, q) with p, q >= 1 and p + q in 5..9 (30 shapes) in both formats.
# The shapes differ in cost by a factor of 500, so each pass covers all of
# them; the seed sets the order, and the formats alternate along it.  The
# cheap p + q = 5 shapes put the median op among shapes of near-equal cost;
# from 6 up it fell on a 17% gap between two shapes.
GRAPH_TOTALS = range(5, 10)
_DOT_NODE = re.compile(r'^  "([^"]+)";$', re.M)
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[', re.M)


def graph_export_ops(pkg, rng) -> list[Op]:
    shapes = [(p, total - p) for total in GRAPH_TOTALS for p in range(1, total)]
    rng.shuffle(shapes)
    formats = ("json", "dot")
    ops = []
    for half in range(2):
        for k, (p, q) in enumerate(shapes):
            fmt = formats[(k + half) % 2]
            ops.append(Op(("graph", "--p", str(p), "--q", str(q), "--format", fmt), (p, q, fmt)))
    return ops


def check_graph(pkg, op, out):
    clans = pkg.clans
    p, q, fmt = op.facts
    if fmt == "json":
        graph = json.loads(out)["output"]
        nodes = graph["nodes"]
        edges = [(e["src"], e["dst"]) for e in graph["edges"]]
    else:
        nodes = _DOT_NODE.findall(out)
        edges = _DOT_EDGE.findall(out)
    want = clans.count_clans(p, q)
    if len(nodes) != want or len(set(nodes)) != want:
        return f"{len(nodes)} nodes ({len(set(nodes))} distinct), want {want}"
    sinks = set(nodes) - {src for src, _ in edges}
    dense = clans.format_clan(clans.dense_clan(p, q))
    if sinks != {dense}:
        return f"sinks {sorted(sinks)[:3]}, want only {dense}"
    dim = {text: clans.orbit_dimension(clans.parse_clan(text, p, q)) for text in nodes}
    for src, dst in edges:
        if src not in dim or dst not in dim or dim[dst] != dim[src] + 1:
            return f"edge {src} -> {dst} does not raise orbit dimension by 1"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("product_verify", product_verify_ops, check_product,
                 ("product", "--x", "31425", "--y", "14253", "--p", "3", "--verify"), False),
        Workload("oracle_product", oracle_product_ops, check_oracle,
                 ("oracle-product", "--x", "31425", "--y", "14253"), True),
        Workload("graph_export", graph_export_ops, check_graph,
                 ("graph", "--p", "2", "--q", "2", "--format", "json"), False),
    )
}
