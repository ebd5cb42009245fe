"""Regenerate or check BENCH_wset.json, the clan rule's w-set work on fixed inputs.

    python tools/bench_wset.py           # rewrite BENCH_wset.json
    python tools/bench_wset.py --check   # exit 1 if a count drifts

Each case starts from an empty w-set table (``weak_order.clear_w_set_table``)
and runs either ``weak_order.w_set`` on the alternating clan + - + - ...,
or ``richardson.special_product`` on every pair that ``verify --n`` sweeps,
in the same order.  The counts do not depend on the machine:

* terms -- permutations returned: |W(gamma)| for one clan, the terms of
  every product for a sweep;
* perms_stored -- permutations the shared w-set table holds afterwards;
* clans_stored -- clans whose w-set the table holds afterwards;
* act_simple_calls -- simple reflections applied to a clan by the descent.

Beside each case sits the best of three wall times, which do depend on the
machine; ``--check`` runs each case once and compares the counts only.
``act_simple`` is counted by wrapping it in this process (the descent looks
the name up at call time), so the package itself carries no counters.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubert_clans import permutations, richardson, weak_order  # noqa: E402

BENCH_FILE = ROOT / "BENCH_wset.json"
REPEATS = 3
COUNTS = ("terms", "perms_stored", "clans_stored", "act_simple_calls")


def alternating(n):
    return len(weak_order.w_set(tuple("+-"[k % 2] for k in range(n))))


def verify_clan_side(n):
    w0 = permutations.longest(n)
    return sum(
        len(richardson.special_product(permutations.compose(w0, u), v, p))
        for p in range(1, n) for u, v in richardson.admissible_pairs(n, p)
    )


INPUTS = {
    "alternating n=8": lambda: alternating(8),
    "alternating n=9": lambda: alternating(9),
    "alternating n=10": lambda: alternating(10),
    "verify n=7 clan side": lambda: verify_clan_side(7),
    "verify n=8 clan side": lambda: verify_clan_side(8),
}


def run_case(make):
    """(counts, seconds) of one run from an empty w-set table."""
    weak_order.clear_w_set_table()
    act_simple = weak_order.act_simple
    calls = 0

    def count_act_simple(i, gamma):
        nonlocal calls
        calls += 1
        return act_simple(i, gamma)

    weak_order.act_simple = count_act_simple
    try:
        start = time.perf_counter()
        terms = make()
        seconds = time.perf_counter() - start
    finally:
        weak_order.act_simple = act_simple
    counts = {"terms": terms, "perms_stored": weak_order.w_set_table_size(),
              "clans_stored": len(weak_order._W_SET_TABLE), "act_simple_calls": calls}
    weak_order.clear_w_set_table()
    return counts, seconds


def measure(repeats):
    cases = []
    for name, make in INPUTS.items():
        runs = [run_case(make) for _ in range(repeats)]
        if any(counts != runs[0][0] for counts, _ in runs):
            raise RuntimeError(f"{name}: the counts differ between runs")
        cases.append({"name": name, "counts": runs[0][0],
                      "best_s": round(min(s for _, s in runs), 4)})
        print(f"{name:22} {cases[-1]['counts']} {cases[-1]['best_s']:.3f} s", file=sys.stderr)
    return cases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare the counts with {BENCH_FILE.name} and exit 1 on drift")
    args = parser.parse_args(argv)
    if args.check:
        want = {c["name"]: c["counts"] for c in json.loads(BENCH_FILE.read_text())["cases"]}
        got = {c["name"]: c["counts"] for c in measure(1)}
        drift = [f"{name}: {want.get(name)} -> {got.get(name)}"
                 for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
        for line in drift:
            print(f"drift: {line}", file=sys.stderr)
        return 1 if drift else 0
    doc = {
        "command": "python tools/bench_wset.py",
        "times": f"best of {REPEATS} runs, python {platform.python_version()} on {platform.machine()}",
        "cases": measure(REPEATS),
    }
    BENCH_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
