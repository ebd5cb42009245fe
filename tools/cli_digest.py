"""Regenerate or check CLI_DIGEST.json, a fingerprint of the CLI's outputs.

    python tools/cli_digest.py            # rewrite CLI_DIGEST.json
    python tools/cli_digest.py --check    # exit 1 if a group's digest drifts

Each group runs a fixed list of command lines through ``cli.main`` in this
process and hashes, call by call, the argument list, the exit status, stdout
and stderr with the "# <subcommand>: <seconds>s" timing line taken out.  A
refactor that should not change what the CLI prints, success or error,
must leave every group's sha256 as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubert_clans import clans, cli, permutations, richardson  # noqa: E402

DIGEST_FILE = ROOT / "CLI_DIGEST.json"
TIMING_LINE = re.compile(r"^# [\w-]+: \d+\.\d{3}s\n", re.M)
FORMATS = ((), ("--format", "text"))
_fmt = permutations.format_perm


def admissible_calls():
    """product --verify and clan-of, JSON and text, on every admissible pair
    with n <= 6."""
    for n in range(1, 7):
        for p in range(n + 1):
            for u, v in richardson.admissible_pairs(n, p):
                x = permutations.compose(permutations.longest(n), u)
                for fmt in FORMATS:
                    yield ("product", "--x", _fmt(x), "--y", _fmt(v), "--p", str(p),
                           "--verify", *fmt)
                    yield ("clan-of", "--u", _fmt(u), "--v", _fmt(v), "--p", str(p), *fmt)


def shuffle_calls():
    """clan-of (u, v) and product (x = u, y = v) on every shuffle pair with
    n <= 4: incomparable pairs, and x that fail the shuffle test."""
    for n in range(1, 5):
        for p in range(n + 1):
            for u in richardson.descending_shuffles(n, p):
                for v in richardson.ascending_shuffles(n, p):
                    yield ("clan-of", "--u", _fmt(u), "--v", _fmt(v), "--p", str(p))
                    yield ("product", "--x", _fmt(u), "--y", _fmt(v), "--p", str(p))


def oracle_calls():
    perms = list(itertools.permutations(range(1, 5)))
    for x in perms:
        for y in perms:
            for extra in ((), ("--all-terms",)):
                yield ("oracle-product", "--x", _fmt(x), "--y", _fmt(y), *extra)


def pair_of_calls():
    """Every clan with 1 <= p + q <= 6, the (1,2,1,2) ones that exit 2 too."""
    for total in range(1, 7):
        for p in range(total + 1):
            for gamma in clans.enumerate_clans(p, total - p):
                for fmt in FORMATS:
                    yield ("pair-of", "--clan", clans.format_clan(gamma), *fmt)


def listing_calls():
    for total in range(1, 9):
        for p in range(total + 1):
            shape = ("--p", str(p), "--q", str(total - p))
            yield ("graph", *shape)
            yield ("graph", *shape, "--format", "dot")
            yield ("clans", *shape)
            yield ("clans", *shape, "--format", "text")


def sweep_calls():
    for n in range(1, 8):
        yield ("verify", "--n", str(n))
        for cases in (1, 3, 10, 100):
            yield ("verify", "--n", str(n), "--max-cases", str(cases))
    yield ("table1",)


def pinned_calls():
    """A guard beside the plain call, and graph --p 4 --q 5, the benchmark's
    largest graph_export shape, past the listing group's p + q <= 8."""
    product = ("product", "--x", "31425", "--y", "14253", "--p", "3")
    yield product
    yield (*product, "--perm-guard", "10")
    yield ("clans", "--p", "2", "--q", "2", "--clan-guard", "84")
    yield ("graph", "--p", "4", "--q", "5")
    yield ("graph", "--p", "4", "--q", "5", "--format", "dot")


GROUPS = {
    "admissible pairs n<=6": admissible_calls,
    "shuffle pairs n<=4": shuffle_calls,
    "oracle-product S_4 x S_4": oracle_calls,
    "pair-of p+q<=6": pair_of_calls,
    "graph and clans p+q<=8": listing_calls,
    "verify n<=7 and table1": sweep_calls,
    "pinned calls": pinned_calls,
}


def run_call(argv):
    """[argv, exit status, stdout, stderr without the timing line]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the command line
            status = exc.code
    return [list(argv), status, out.getvalue(), TIMING_LINE.sub("", err.getvalue())]


def digest_group(calls):
    """{"calls": count, "sha256": hex} over the records of one group."""
    digest = hashlib.sha256()
    count = 0
    for argv in calls():
        digest.update((json.dumps(run_call(argv)) + "\n").encode())
        count += 1
    return {"calls": count, "sha256": digest.hexdigest()}


def measure():
    groups = {}
    for name, calls in GROUPS.items():
        groups[name] = digest_group(calls)
        print(f"{groups[name]['sha256']}  {groups[name]['calls']:5} calls  {name}")
    return groups


def drift(want, got):
    """One line for each group whose digest differs, or that one side lacks."""
    return [f"{name}: {want.get(name)} -> {got.get(name)}"
            for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare the digests with {DIGEST_FILE.name} and exit 1 on drift")
    args = parser.parse_args(argv)
    groups = measure()
    if args.check:
        lines = drift(json.loads(DIGEST_FILE.read_text())["groups"], groups)
        for line in lines:
            print(f"drift: {line}", file=sys.stderr)
        return 1 if lines else 0
    doc = {"command": "python tools/cli_digest.py", "groups": groups}
    DIGEST_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
