"""Regenerate or check the BENCH files, the work of both routes on fixed inputs.

    python tools/bench_counts.py           # rewrite BENCH_oracle.json and BENCH_wset.json
    python tools/bench_counts.py --check   # exit 1 if a count drifts in either

BENCH_oracle.json: each case runs a fixed list of products through
``oracle.oracle_product``, restricted to S_n (the degree-n path every
clan-rule comparison takes) or with all terms, from an empty Schubert
polynomial cache.  Its counts:

* schubert_built -- Schubert polynomials computed: one staircase monomial
  or one divided difference each;
* divided_differences -- divided-difference steps run to build them;
* product_terms -- monomials in the products S_x . S_y;
* schubert_steps -- leaders the greedy expansion cancelled by an S_w, one
  per term it finds;
* ideal_steps -- leaders the degree-n greedy cancelled by an element of
  the ideal it works modulo (0 with all terms);
* output_terms -- terms returned.

BENCH_wset.json: each case starts from an empty w-set table
(``weak_order.clear_w_set_table``) and runs either ``weak_order.w_set`` on
the alternating clan + - + - ..., or ``richardson.special_product`` on every
pair that ``verify --n`` sweeps, in the same order.  Its counts:

* terms -- permutations returned: |W(gamma)| for one clan, the terms of
  every product for a sweep;
* perms_stored -- permutations the shared w-set table holds afterwards;
* clans_stored -- clans whose w-set the table holds afterwards;
* act_simple_calls -- simple reflections applied to a clan by the descent.

The counts do not depend on the machine.  Beside each case sits the best of
three wall times, which do; ``--check`` runs each case once and compares the
counts only.  The counts come from rebinding the package's functions in this
process (``WRAPPED``; their callers look the names up at call time), so the
package itself carries no counters.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubert_clans import oracle, permutations, richardson, weak_order  # noqa: E402

REPEATS = 3
ORACLE_COUNTS = ("schubert_built", "divided_differences", "product_terms", "schubert_steps",
                 "ideal_steps", "output_terms")
WSET_COUNTS = ("terms", "perms_stored", "clans_stored", "act_simple_calls")


def _once(result):
    return 1


# (module, name, the counts each call adds to, what it adds given the result)
WRAPPED = (
    (oracle, "_pack", ("schubert_built",), _once),  # oracle_product packs only staircases
    (oracle, "_divdiff", ("schubert_built", "divided_differences"), _once),
    (oracle, "_multiply_packed", ("product_terms",), len),
    (oracle, "_box_reducer", ("ideal_steps",), _once),
    # the greedy names each S_w it subtracts
    (permutations, "code_to_perm", ("schubert_steps",), _once),
    (weak_order, "act_simple", ("act_simple_calls",), _once),
)


@contextlib.contextmanager
def counting():
    """Rebind every WRAPPED function to one that counts its calls, and put
    every original back on exit; yields the counts."""
    counts = collections.Counter()
    saved = [(module, name, getattr(module, name)) for module, name, _, _ in WRAPPED]

    def counted(original, keys, weigh):
        def wrapper(*args):
            result = original(*args)
            for key in keys:
                counts[key] += weigh(result)
            return result
        return wrapper

    try:
        for (module, name, original), (_, _, keys, weigh) in zip(saved, WRAPPED):
            setattr(module, name, counted(original, keys, weigh))
        yield counts
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def alternating_pair(n):
    u, v = richardson.pair_of_clan(tuple("+-"[k % 2] for k in range(n)))
    return [(permutations.compose(permutations.longest(n), u), v)]


def parsed(*pairs):
    return [(permutations.parse_perm(x), permutations.parse_perm(y)) for x, y in pairs]


def all_pairs(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    return [(x, y) for x in perms for y in perms]


ORACLE_INPUTS = {
    "alternating n=8": (8, lambda: alternating_pair(8)),
    "alternating n=9": (9, lambda: alternating_pair(9)),
    # the two heaviest fixed products of the benchmark's oracle workload
    "heavy S_8 pairs": (8, lambda: parsed(("17432865", "51468237"), ("17432865", "25483167"))),
    # S_8 pairs with l(x) + l(y) <= 28 whose S_8 part is empty (x is not
    # below w0 y): without the Bruhat cut the degree-8 greedy takes 160 and
    # 6,150 ideal steps to reach {}
    "empty S_8 products": (8, lambda: parsed(("14567823", "65324718"), ("13627854", "28176543"))),
    "all S_6 x S_6": (6, lambda: all_pairs(6)),
}


def run_oracle(pairs, degree):
    """(counts, seconds) of one run over the pairs from an empty cache."""
    oracle.clear_schubert_cache()
    with counting() as counts:
        start = time.perf_counter()
        for x, y in pairs:
            counts["output_terms"] += len(oracle.oracle_product(x, y, degree))
        seconds = time.perf_counter() - start
    return {key: counts[key] for key in ORACLE_COUNTS}, seconds


def oracle_cases():
    for name, (n, make) in ORACLE_INPUTS.items():
        pairs = make()
        for mode, degree in (("restricted", n), ("all_terms", None)):
            yield ({"name": name, "mode": mode, "products": len(pairs)},
                   functools.partial(run_oracle, pairs, degree))


def alternating_w_set(n):
    return len(weak_order.w_set(tuple("+-"[k % 2] for k in range(n))))


def verify_clan_side(n):
    w0 = permutations.longest(n)
    return sum(
        len(richardson.special_product(permutations.compose(w0, u), v, p))
        for p in range(1, n) for u, v in richardson.admissible_pairs(n, p)
    )


WSET_INPUTS = {
    "alternating n=8": lambda: alternating_w_set(8),
    "alternating n=9": lambda: alternating_w_set(9),
    "alternating n=10": lambda: alternating_w_set(10),
    "verify n=7 clan side": lambda: verify_clan_side(7),
    "verify n=8 clan side": lambda: verify_clan_side(8),
}


def run_wset(make):
    """(counts, seconds) of one run from an empty w-set table, which it
    leaves empty."""
    weak_order.clear_w_set_table()
    with counting() as counts:
        start = time.perf_counter()
        counts["terms"] = make()
        seconds = time.perf_counter() - start
    counts["perms_stored"] = weak_order.w_set_table_size()
    counts["clans_stored"] = len(weak_order._W_SET_TABLE)
    weak_order.clear_w_set_table()
    return {key: counts[key] for key in WSET_COUNTS}, seconds


def wset_cases():
    for name, make in WSET_INPUTS.items():
        yield {"name": name}, functools.partial(run_wset, make)


BENCH_FILES = {ROOT / "BENCH_oracle.json": oracle_cases, ROOT / "BENCH_wset.json": wset_cases}


def label(case):
    return f"{case['name']} {case.get('mode', '')}".rstrip()


def measure(cases, repeats):
    """Run each (fields, run) case repeats times and record its counts,
    refused if they differ between runs, beside the best time."""
    records = []
    for fields, run in cases:
        runs = [run() for _ in range(repeats)]
        if any(counts != runs[0][0] for counts, _ in runs):
            raise RuntimeError(f"{label(fields)}: the counts differ between runs")
        records.append({**fields, "counts": runs[0][0], "best_s": round(min(s for _, s in runs), 4)})
        print(f"{label(fields):29} {runs[0][0]} {records[-1]['best_s']:.3f} s", file=sys.stderr)
    return records


def drift(file_name, want_cases, got_cases):
    """One line for each case whose counts differ, or that one side lacks."""
    want = {label(case): case["counts"] for case in want_cases}
    got = {label(case): case["counts"] for case in got_cases}
    return [f"{file_name} {key}: {want.get(key)} -> {got.get(key)}"
            for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the counts with the BENCH files and exit 1 on drift")
    args = parser.parse_args(argv)
    lines = []
    for path, cases in BENCH_FILES.items():
        if args.check:
            lines += drift(path.name, json.loads(path.read_text())["cases"], measure(cases(), 1))
            continue
        doc = {
            "command": "python tools/bench_counts.py",
            "times": f"best of {REPEATS} runs, python {platform.python_version()} on {platform.machine()}",
            "cases": measure(cases(), REPEATS),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    for line in lines:
        print(f"drift: {line}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
