"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints its metrics, the last line
being one JSON object.  ``--workload all`` runs every workload, each in its
own process, and prints one table.  With ``--trace 1`` the run reports the
per-layer metrics instead; see perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 175
# The untraced reference run for the tracing overhead needs one pass only.
REFERENCE_SECONDS = 1


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(metrics: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order, checked by name and unit."""
    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def environment(seed) -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"seed {seed}, commit {commit}")


def run_child(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run exited {done.returncode}")
    return json.loads(lines[-1])


def run_one(args) -> dict:
    workload = WORKLOADS[args.workload]
    reference = None
    if args.trace:
        reference = run_child(args.workload, args.seed, REFERENCE_SECONDS, 0)
    pkg, ops, setup_s, setup_raw = harness.set_up(workload, args.seed, SRC)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer(pkg)
        tracer.install()
    m = harness.measure(pkg, workload, ops, args.seconds, tracer)
    metrics = harness.end_to_end(m, setup_s)
    speed = statistics.median(harness.speed_factors(m.loops))
    lines = [f"# {args.workload}: {environment(args.seed)}",
             f"# {m.attempted} ops in {m.passes} passes of {len(ops)}, "
             f"window {sum(m.intervals):.3f} s, host speed factor {speed:.3f}"]
    if tracer is None:
        wanted = spec()["end_to_end"]
        unscaled = harness.end_to_end(m, setup_raw, scaled=False)
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<16} {value:14.6f} {unit:<6} samples {m.attempted:<6} "
                         f"unscaled {unscaled[name][0]:.6f}")
    else:
        tracer.uninstall()
        layer = tracer.metrics(m.passes)
        layer["oracle.cache_entries"] = (m.cache_peak, "count")
        layer["failed_ratio"] = metrics["failed_ratio"]
        traced = metrics["ops_per_s"][0]
        untraced = reference["metrics"]["ops_per_s"]["value"]
        layer["trace.ops_per_s"] = (traced, "1/s")
        layer["trace.untraced_ops_per_s"] = (untraced, "1/s")
        layer["trace.overhead"] = (untraced / traced, "ratio")
        wanted = spec()["per_layer"]
        metrics = layer
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
        table = [f"{e['name']:<40} {layer[e['name']][0]:16.6f} {e['unit']}" for e in wanted]
        lines.append(f"# per pass; {len(tracer.spans)} spans of the first pass in out/spans-{stem}.jsonl")
        lines += table
        (OUT / f"layers-{stem}.txt").write_text("\n".join(lines) + "\n")
    correct = m.failed == 0 and (reference is None or reference["correct"])
    result = {"correct": correct, "attempted": m.attempted, "failed": m.failed,
              "metrics": select(metrics, wanted)}
    print("\n".join(lines))
    return result


def run_all(args) -> int:
    """Every workload in its own process, one table."""
    rows, results, status = [], {}, 0
    for name in WORKLOADS:
        try:
            result = run_child(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            status = 1
            continue
        results[name] = result
        status |= 0 if result["correct"] else 1
        for metric, entry in result["metrics"].items():
            rows.append(f"{name:<16} {metric:<40} {entry['value']:16.6f} {entry['unit']:<6} "
                        f"samples {result['attempted']}")
    env = environment(args.seed)
    report = {"environment": env, "seconds": args.seconds, "trace": args.trace, "results": results}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"# {env}")
    print("\n".join(rows))
    print(json.dumps(report))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "schubert_clans").is_dir():
        print(f"error: no package source at {SRC / 'schubert_clans'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
