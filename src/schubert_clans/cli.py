"""
Command-line driver.

Every subcommand prints a single machine-readable JSON report to stdout
(sorted keys, fixed indentation, so output is byte-stable for fixed inputs)
and a one-line timing note to stderr.  The only exception is
``graph --format dot``, whose stdout is the DOT text itself.

Exit status: 0 on success, 1 when a verification or golden-data comparison
fails, 2 on bad input or an exceeded guard.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from importlib import resources

from . import clans, oracle, permutations, richardson, weak_order
from .guards import GuardError

_TABLE_RESOURCE = "data/table1.json"


def _report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _expansion_text(x, y, expansion) -> str:
    lhs = f"S_{permutations.format_perm(x)} * S_{permutations.format_perm(y)}"
    if not expansion:
        return f"{lhs} = 0\n"
    parts = []
    for w in sorted(expansion):
        c = expansion[w]
        prefix = "" if c == 1 else f"{c} "
        parts.append(f"{prefix}S_{permutations.format_perm(w)}")
    return f"{lhs} = " + " + ".join(parts) + "\n"


def cmd_product(args) -> tuple[str, int]:
    x = permutations.parse_perm(args.x)
    y = permutations.parse_perm(args.y)
    expansion = richardson.special_product(x, y, args.p, guard=args.perm_guard)
    doc = {
        "command": "product",
        "inputs": {"p": args.p, "verify": bool(args.verify), "x": args.x, "y": args.y},
        "output": richardson.expansion_json_dict(x, y, args.p, expansion),
    }
    status = 0
    if args.verify:
        n = len(x)
        reference = oracle.oracle_product(x, y, n)
        if reference == expansion:
            doc["verdict"] = "match"
        else:
            doc["verdict"] = "mismatch"
            doc["oracle"] = richardson.expansion_json_dict(x, y, args.p, reference)
            status = 1
    if args.format == "text":
        text = _expansion_text(x, y, expansion)
        if args.verify:
            text += f"oracle: {doc['verdict']}\n"
        return text, status
    return _report(doc), status


def cmd_oracle_product(args) -> tuple[str, int]:
    x = permutations.parse_perm(args.x)
    y = permutations.parse_perm(args.y)
    n = max(len(x), len(y))
    expansion = oracle.oracle_product(x, y, None if args.all_terms else n)
    doc = {
        "command": "oracle-product",
        "inputs": {"all_terms": bool(args.all_terms), "x": args.x, "y": args.y},
        "output": richardson.expansion_json_dict(x, y, None, expansion),
    }
    if args.format == "text":
        return _expansion_text(x, y, expansion), 0
    return _report(doc), 0


def cmd_clan_of(args) -> tuple[str, int]:
    u = permutations.parse_perm(args.u)
    v = permutations.parse_perm(args.v)
    gamma = richardson.clan_of_pair(u, v, args.p)
    doc = {
        "command": "clan-of",
        "inputs": {"p": args.p, "u": args.u, "v": args.v},
        "output": {"clan": clans.format_clan(gamma)},
    }
    if args.format == "text":
        return clans.format_clan(gamma) + "\n", 0
    return _report(doc), 0


def cmd_pair_of(args) -> tuple[str, int]:
    gamma = clans.parse_clan(args.clan)
    u, v = richardson.pair_of_clan(gamma)
    p, q = clans.signature(gamma)
    doc = {
        "command": "pair-of",
        "inputs": {"clan": args.clan},
        "output": {
            "clan": clans.format_clan(gamma),
            "p": p,
            "q": q,
            "u": permutations.format_perm(u),
            "v": permutations.format_perm(v),
        },
    }
    if args.format == "text":
        return f"u = {permutations.format_perm(u)}, v = {permutations.format_perm(v)}\n", 0
    return _report(doc), 0


def cmd_graph(args) -> tuple[str, int]:
    graph = weak_order.weak_order_graph(args.p, args.q, guard=args.clan_guard)
    if args.format == "dot":
        return weak_order.graph_dot(graph), 0
    doc = {
        "command": "graph",
        "inputs": {"p": args.p, "q": args.q},
        "output": weak_order.graph_json_dict(graph),
    }
    return _report(doc), 0


def cmd_clans(args) -> tuple[str, int]:
    listing = clans.enumerate_clans(args.p, args.q, guard=args.clan_guard)
    if args.format == "text":
        return "".join(clans.format_clan(g) + "\n" for g in listing), 0
    doc = {
        "command": "clans",
        "inputs": {"p": args.p, "q": args.q},
        "output": {
            "clans": [clans.format_clan(g) for g in listing],
            "count": len(listing),
        },
    }
    return _report(doc), 0


def cmd_verify(args) -> tuple[str, int]:
    n = args.n
    if not 1 <= n <= 8:
        raise ValueError("verify sweeps are supported for 1 <= n <= 8")
    if args.max_cases is not None and args.max_cases < 1:
        raise ValueError(f"--max-cases must be at least 1, got {args.max_cases}")
    pairs = (
        (p, u, v) for p in range(1, n) for u, v in richardson.admissible_pairs(n, p)
    )
    mismatches = []
    by_p = {}
    for p, u, v in itertools.islice(pairs, args.max_cases):
        x = permutations.compose(permutations.longest(n), u)
        fast = richardson.special_product(x, v, p)
        slow = oracle.oracle_product(x, v, n)
        if fast != slow:
            mismatches.append(
                {
                    "p": p,
                    "u": permutations.format_perm(u),
                    "v": permutations.format_perm(v),
                }
            )
        by_p[str(p)] = by_p.get(str(p), 0) + 1
    doc = {
        "command": "verify",
        "inputs": {"max_cases": args.max_cases, "n": n},
        "output": {
            "mismatches": mismatches,
            "pairs_by_p": by_p,
            "pairs_checked": sum(by_p.values()),
        },
        "verdict": "pass" if not mismatches else "fail",
    }
    return _report(doc), 0 if not mismatches else 1


def cmd_table1(args) -> tuple[str, int]:
    golden_bytes = (
        resources.files("schubert_clans").joinpath(_TABLE_RESOURCE).read_bytes()
    )
    golden = json.loads(golden_bytes)

    x = permutations.parse_perm(golden["x"])
    y = permutations.parse_perm(golden["y"])
    p = golden["p"]
    n = len(x)
    u = permutations.compose(permutations.longest(n), x)
    start = richardson.clan_of_pair(u, y, p)
    dense = clans.dense_clan(*clans.signature(start))

    rows = []
    for row in golden["rows"]:
        word = tuple(row["word"])
        reached = weak_order.act_word(word, start)
        rows.append(
            {
                "word": list(word),
                "clan": clans.format_clan(reached),
                "constant": 1 if reached == dense else 0,
            }
        )
    regenerated = {
        "x": golden["x"],
        "y": golden["y"],
        "p": p,
        "q": n - p,
        "start_clan": clans.format_clan(start),
        "rows": rows,
    }
    regenerated_bytes = _report(regenerated).encode()
    match = regenerated_bytes == golden_bytes

    diffs = []
    if not match:
        for i, (got, want) in enumerate(zip(rows, golden["rows"])):
            if got != want:
                diffs.append({"row": i, "got": got, "want": want})
    doc = {
        "command": "table1",
        "inputs": {},
        "output": {
            "bytes_match": match,
            "diffs": diffs,
            "rows": len(rows),
            "start_clan": clans.format_clan(start),
        },
        "verdict": "pass" if match else "fail",
    }
    return _report(doc), 0 if match else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="schubert-clans",
        description=(
            "Schubert structure constants for Levi-stable Richardson varieties, "
            "via (p,q)-clans, with a brute-force Schubert polynomial oracle."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    json_text = ("json", "text")
    clan_guard_help = "largest p+q whose clans may be enumerated"

    sp = sub.add_parser("product", help="expand S_x * S_y by the clan rule")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--verify", action="store_true", help="cross-check against the oracle")
    sp.add_argument("--format", choices=json_text, default="json")
    sp.add_argument("--perm-guard", type=int, help="largest n whose w-set may be computed")
    sp.set_defaults(handler=cmd_product)

    sp = sub.add_parser("oracle-product", help="expand any S_x * S_y by polynomial arithmetic")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument(
        "--all-terms",
        action="store_true",
        help="keep expansion terms outside the common S_n",
    )
    sp.add_argument("--format", choices=json_text, default="json")
    sp.set_defaults(handler=cmd_oracle_product)

    sp = sub.add_parser("clan-of", help="the clan of a Richardson pair (u, v)")
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=json_text, default="json")
    sp.set_defaults(handler=cmd_clan_of)

    sp = sub.add_parser("pair-of", help="the Richardson pair of a (1,2,1,2)-avoiding clan")
    sp.add_argument("--clan", required=True)
    sp.add_argument("--format", choices=json_text, default="json")
    sp.set_defaults(handler=cmd_pair_of)

    sp = sub.add_parser("graph", help="export the weak order graph on (p,q)-clans")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.add_argument("--clan-guard", type=int, help=clan_guard_help)
    sp.set_defaults(handler=cmd_graph)

    sp = sub.add_parser("clans", help="list all (p,q)-clans")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=json_text, default="json")
    sp.add_argument("--clan-guard", type=int, help=clan_guard_help)
    sp.set_defaults(handler=cmd_clans)

    sp = sub.add_parser("verify", help="sweep all admissible pairs, clan rule vs oracle")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--max-cases", type=int, default=None)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("table1", help="regenerate the golden 20-row product table and diff it")
    sp.set_defaults(handler=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        output, status = args.handler(args)
    except (ValueError, IndexError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    elapsed = time.perf_counter() - started
    print(f"# {args.subcommand}: {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
