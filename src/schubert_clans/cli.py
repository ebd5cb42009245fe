"""
Command-line driver.

Every subcommand prints a single machine-readable JSON report to stdout
(sorted keys, fixed indentation, so output is byte-stable for fixed inputs)
and a one-line timing note to stderr.  The only exception is
``graph --format dot``, whose stdout is the DOT text itself.

:func:`_report` writes every report: ``command``, the options under
``inputs``, the handler's ``output`` and a ``verdict`` where a check runs.
An option added to a subparser is echoed under ``inputs`` unless
``_NOT_ECHOED`` lists it.

:func:`_dumps` formats every report, and ``table1``'s golden check.  Its
bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``, but
``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set, so
``_dumps`` walks the containers itself in one pass and hands each string to
the C escaper ``json.dumps`` uses (``encode_basestring_ascii``), each
``int`` to ``int.__repr__`` and every other atom to ``json.dumps``.

Every JSON report is written while it is made: :func:`_report` hands
``sys.stdout`` to :func:`_dumps`, each array writes the pieces gathered so
far every ``_FLUSH_PIECES`` pieces, and the handler returns only the rest.
An array whose items share one layout is a :class:`_Rows`: ``graph``'s
edges, one edge with a slot for each of ``dst``, ``root`` and ``src``, and
``clans``'s texts, one slot each.  ``_write`` writes that shape once, at
the array's indent, and each item's text is one ``%``-format of its row.
``weak_order.graph_json_dict`` hands out the edges as ``(src, dst, root)``
rows, and the ``graph`` handler alone gives them their JSON record.  The
``clans`` text and the DOT graph go out a line at a time through the
stream's own buffer.  So no listing's text, and no graph's edges, are ever
all held at once.  The guards are checked before the first write, so a
refused call prints nothing to stdout.

Exit status: 0 on success, 1 when a verification or golden-data comparison
fails or a write finds stdout closed, 2 on bad input or an exceeded guard.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
import time
from collections.abc import Iterable
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import clans, oracle, permutations, richardson, weak_order
from .guards import GuardError

_TABLE_RESOURCE = "data/table1.json"
# parsed arguments left out of "inputs": the subcommand, its handler, the
# format, and the guards, which decide whether a call runs, not its output
_NOT_ECHOED = ("subcommand", "handler", "format", "perm_guard", "clan_guard")


# The exact types whose JSON text needs no container walk.  Anything else
# that is not a dict, list or tuple (floats, subclasses, objects json
# refuses) goes to json.dumps, so its text or error is json's own.
_ATOMS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# Pieces an array gathers before a streamed report writes them out.
_FLUSH_PIECES = 2048

# Marks a slot in the shape of a _Rows array's items.
_SLOT = "\0"


class _Rows:
    """An array whose items share one layout, for :func:`_write`.

    ``shape`` is one item with ``_SLOT`` for each value that varies, and
    each row gives those values in the order the slots are written (keys
    sorted): strings as their JSON text, or ints.  _write writes the shape
    once, at the array's indent, and each item is that text filled in by
    ``%``: no item is walked.
    """

    def __init__(self, shape, rows: Iterable[tuple]):
        self.shape, self.rows = shape, rows


def _dumps(doc: dict, stream=None) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    One recursive pass appends to one list, joined once.  Values are what
    ``json.dumps`` takes, or a :class:`_Rows`, but dict keys must be
    ``str``: anything else raises ``TypeError``.  Given a stream, an array
    writes the pieces gathered so far to it every _FLUSH_PIECES pieces,
    and only the rest is returned.
    """
    out = []
    _write(doc, "\n", out, stream)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, out: list, stream) -> None:
    """Append the JSON text of obj to out; newline is "\\n" plus its indent."""
    atom = _ATOMS.get(type(obj))
    if atom is not None:
        out.append(atom(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        lead, sep = "{" + inner, "," + inner
        for key in sorted(obj):
            out.append(lead)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(obj[key], inner, out, stream)
            lead = sep
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple, _Rows)):
        inner = newline + "  "
        lead, sep = "[" + inner, "," + inner
        fill = None
        if type(obj) is _Rows:
            fill, obj = _template(obj.shape, inner).__mod__, obj.rows
        for item in obj:
            out.append(lead)
            if fill is None:
                _write(item, inner, out, stream)
            else:
                out.append(fill(item))
            lead = sep
            if stream is not None and len(out) >= _FLUSH_PIECES:
                stream.write("".join(out))
                out.clear()
        out.append(newline + "]" if lead is sep else "[]")
    else:
        out.append(json.dumps(obj))


def _template(shape, newline: str) -> str:
    """The JSON text of shape as a ``%``-format, one ``%s`` per _SLOT."""
    out = []
    _write(shape, newline, out, None)
    return "".join(out).replace("%", "%%").replace(encode_basestring_ascii(_SLOT), "%s")


def _report(args, output, **rest) -> str:
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    doc = {"command": args.subcommand, "inputs": inputs, "output": output, **rest}
    return _dumps(doc, sys.stdout)


def _expansion_json(x, y, p, expansion) -> dict:
    """The wire form of an expansion: terms sorted by one-line notation."""
    doc = {
        "x": permutations.format_perm(x),
        "y": permutations.format_perm(y),
        "terms": [
            {"w": permutations.format_perm(w), "coeff": expansion[w]}
            for w in sorted(expansion)
        ],
    }
    if p is not None:
        doc["p"] = p
    return doc


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
    x = permutations.parse_perm(args.x, "x")
    y = permutations.parse_perm(args.y, "y")
    expansion = richardson.special_product(x, y, args.p, guard=args.perm_guard)
    checked = {}
    status = 0
    if args.verify:
        n = len(x)
        reference = oracle.oracle_product(x, y, n)
        if reference == expansion:
            checked["verdict"] = "match"
        else:
            checked["verdict"] = "mismatch"
            checked["oracle"] = _expansion_json(x, y, args.p, reference)
            status = 1
    if args.format == "text":
        text = _expansion_text(x, y, expansion)
        if args.verify:
            text += f"oracle: {checked['verdict']}\n"
        return text, status
    return _report(args, _expansion_json(x, y, args.p, expansion), **checked), status


def cmd_oracle_product(args) -> tuple[str, int]:
    x = permutations.parse_perm(args.x, "x")
    y = permutations.parse_perm(args.y, "y")
    n = max(len(x), len(y))
    expansion = oracle.oracle_product(x, y, None if args.all_terms else n)
    if args.format == "text":
        return _expansion_text(x, y, expansion), 0
    return _report(args, _expansion_json(x, y, None, expansion)), 0


def cmd_clan_of(args) -> tuple[str, int]:
    u = permutations.parse_perm(args.u, "u")
    v = permutations.parse_perm(args.v, "v")
    gamma = richardson.clan_of_pair(u, v, args.p)
    if args.format == "text":
        return clans.format_clan(gamma) + "\n", 0
    return _report(args, {"clan": clans.format_clan(gamma)}), 0


def cmd_pair_of(args) -> tuple[str, int]:
    gamma = clans.parse_clan(args.clan)
    u, v = richardson.pair_of_clan(gamma)
    p, q = clans.signature(gamma)
    if args.format == "text":
        return f"u = {permutations.format_perm(u)}, v = {permutations.format_perm(v)}\n", 0
    output = {
        "clan": clans.format_clan(gamma),
        "p": p,
        "q": q,
        "u": permutations.format_perm(u),
        "v": permutations.format_perm(v),
    }
    return _report(args, output), 0


def cmd_graph(args) -> tuple[str, int]:
    # written while it is made: the guard has passed by the first write
    graph = weak_order.weak_order_graph(args.p, args.q, guard=args.clan_guard)
    if args.format == "dot":
        sys.stdout.writelines(weak_order.graph_dot(graph))
        return "", 0
    doc = weak_order.graph_json_dict(graph)
    # the one place the edge record is written; every edge is single (see
    # weak_order's docstring), so each one's multiplicity is the constant 1
    quote = encode_basestring_ascii
    doc["edges"] = _Rows(
        {"dst": _SLOT, "mult": 1, "root": _SLOT, "src": _SLOT},
        ((quote(dst), root, quote(src)) for src, dst, root in doc["edges"]),
    )
    return _report(args, doc), 0


def cmd_clans(args) -> tuple[str, int]:
    listing = clans.enumerate_clans(args.p, args.q, guard=args.clan_guard)
    if args.format == "text":
        sys.stdout.writelines(clans.format_clan(g) + "\n" for g in listing)
        return "", 0
    rows = ((encode_basestring_ascii(clans.format_clan(g)),) for g in listing)
    return _report(args, {"clans": _Rows(_SLOT, rows), "count": len(listing)}), 0


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
    # a count past sys.maxsize, which islice refuses, still means every pair
    for p, u, v in itertools.islice(pairs, min(args.max_cases or sys.maxsize, sys.maxsize)):
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
    output = {
        "mismatches": mismatches,
        "pairs_by_p": by_p,
        "pairs_checked": sum(by_p.values()),
    }
    return _report(args, output, verdict="fail" if mismatches else "pass"), 1 if mismatches else 0


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
        reached = weak_order.act_word(row["word"], start)
        rows.append(
            {
                "word": row["word"],
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
    match = _dumps(regenerated).encode() == golden_bytes
    compared = enumerate(zip(rows, golden["rows"]))
    diffs = [{"row": i, "got": got, "want": want} for i, (got, want) in compared if got != want]
    output = {
        "bytes_match": match,
        "diffs": diffs,
        "rows": len(rows),
        "start_clan": clans.format_clan(start),
    }
    return _report(args, output, verdict="pass" if match else "fail"), 0 if match else 1


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
    clan_guard_help = "most symbols, clans times p+q, a clan enumeration may list"

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
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the output ends here: closing drops what is still buffered, so the
        # exit flush has nothing to report; Python's SIGPIPE note exits 1
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 1
    except (ValueError, IndexError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"# {args.subcommand}: {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
