"""Regenerate or check BENCH_oracle.json, the oracle's work on fixed inputs.

    python tools/bench_oracle.py           # rewrite BENCH_oracle.json
    python tools/bench_oracle.py --check   # exit 1 if a count drifts

Each case runs a fixed list of products through ``oracle.oracle_product``,
restricted to S_n (the degree-n path every clan-rule comparison takes) or
with all terms, from an empty Schubert polynomial cache.  The counts do
not depend on the machine:

* schubert_built -- Schubert polynomials computed, one per cache miss;
* divided_differences -- divided-difference steps run to build them;
* product_terms -- monomials in the products S_x . S_y;
* cancellations -- leaders the greedy expansion cancelled, by an S_w or by
  an element of the ideal it works modulo;
* output_terms -- terms returned.

Beside each case sits the best of three wall times, which do depend on the
machine; ``--check`` runs each case once and compares the counts only.
The counts come from wrapping the oracle's functions in this process, so
the package itself carries no counters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubert_clans import oracle, permutations, richardson  # noqa: E402

BENCH_FILE = ROOT / "BENCH_oracle.json"
REPEATS = 3
COUNTS = ("schubert_built", "divided_differences", "product_terms", "cancellations", "output_terms")


def alternating(n):
    u, v = richardson.pair_of_clan(tuple("+-"[k % 2] for k in range(n)))
    return [(permutations.compose(permutations.longest(n), u), v)]


def heavy_s8():
    # the two heaviest fixed products of the benchmark's oracle workload
    return [(permutations.parse_perm(x), permutations.parse_perm(y))
            for x, y in (("17432865", "51468237"), ("17432865", "25483167"))]


def empty_s8():
    # S_8 pairs with l(x) + l(y) <= 28 whose S_8 part is empty (x is not
    # below w0 y): without the Bruhat cut the degree-8 greedy takes 378 and
    # 35,278 ideal steps to reach {}
    return [(permutations.parse_perm(x), permutations.parse_perm(y))
            for x, y in (("14567823", "65324718"), ("13627854", "28176543"))]


def all_pairs(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    return [(x, y) for x in perms for y in perms]


INPUTS = {
    "alternating n=8": (8, lambda: alternating(8)),
    "alternating n=9": (9, lambda: alternating(9)),
    "heavy S_8 pairs": (8, heavy_s8),
    "empty S_8 products": (8, empty_s8),
    "all S_6 x S_6": (6, lambda: all_pairs(6)),
}


class Counter:
    """Wraps the oracle's internal steps and counts what they do."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self._saved = []
        schubert_coeffs, divdiff = oracle._schubert_coeffs, oracle._divdiff
        multiply, box_reducer = oracle._multiply_packed, oracle._box_reducer
        code_to_perm = permutations.code_to_perm
        counts, cache = self.counts, oracle._SCHUBERT_CACHE

        def count_schubert(w):
            counts["schubert_built"] += w not in cache
            return schubert_coeffs(w)

        def count_divdiff(coeffs, k):
            counts["divided_differences"] += 1
            return divdiff(coeffs, k)

        def count_multiply(p, q):
            product = multiply(p, q)
            counts["product_terms"] += len(product)
            return product

        def count_box_leader(c):  # the greedy names each S_w it subtracts
            counts["cancellations"] += 1
            return code_to_perm(c)

        def count_ideal_step(k, n):
            counts["cancellations"] += 1
            return box_reducer(k, n)

        self._patch(oracle, "_schubert_coeffs", count_schubert)
        self._patch(oracle, "_divdiff", count_divdiff)
        self._patch(oracle, "_multiply_packed", count_multiply)
        self._patch(oracle, "_box_reducer", count_ideal_step)
        self._patch(permutations, "code_to_perm", count_box_leader)

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def __enter__(self):
        return self.counts

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)


def run_case(pairs, degree):
    """(counts, seconds) of one run over the pairs from an empty cache."""
    oracle.clear_schubert_cache()
    with Counter() as counts:
        start = time.perf_counter()
        for x, y in pairs:
            counts["output_terms"] += len(oracle.oracle_product(x, y, degree))
        seconds = time.perf_counter() - start
    return dict(counts), seconds


def measure(repeats):
    cases = []
    for name, (n, make) in INPUTS.items():
        pairs = make()
        for mode, degree in (("restricted", n), ("all_terms", None)):
            runs = [run_case(pairs, degree) for _ in range(repeats)]
            if any(counts != runs[0][0] for counts, _ in runs):
                raise RuntimeError(f"{name} {mode}: the counts differ between runs")
            cases.append({"name": name, "mode": mode, "products": len(pairs),
                          "counts": runs[0][0], "best_s": round(min(s for _, s in runs), 4)})
            print(f"{name:18} {mode:10} {cases[-1]['counts']} {cases[-1]['best_s']:.3f} s",
                  file=sys.stderr)
    return cases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare the counts with {BENCH_FILE.name} and exit 1 on drift")
    args = parser.parse_args(argv)
    if args.check:
        want = {(c["name"], c["mode"]): c["counts"] for c in json.loads(BENCH_FILE.read_text())["cases"]}
        got = {(c["name"], c["mode"]): c["counts"] for c in measure(1)}
        drift = [f"{name} {mode}: {want.get((name, mode))} -> {got.get((name, mode))}"
                 for name, mode in sorted(set(want) | set(got))
                 if want.get((name, mode)) != got.get((name, mode))]
        for line in drift:
            print(f"drift: {line}", file=sys.stderr)
        return 1 if drift else 0
    doc = {
        "command": "python tools/bench_oracle.py",
        "times": f"best of {REPEATS} runs, python {platform.python_version()} on {platform.machine()}",
        "cases": measure(REPEATS),
    }
    BENCH_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
