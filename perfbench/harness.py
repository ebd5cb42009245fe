"""Set-up, the timed loop and the end-to-end metrics shared by every workload.

A workload turns a seed into one *pass*: a fixed list of CLI argument
vectors.  The loop repeats whole passes until the time budget is spent, so
every run of one seed measures the same mix of inputs however fast the
program is.  Each op is one in-process call of ``schubert_clans.cli.main``
from a single closed-loop caller.

Host speed.  On a shared machine other jobs slow this process by up to
1.6x for tens of seconds at a time, which no run length averages away.
So before every op (and every set-up repetition) the harness times a fixed
pure-Python loop that touches nothing in the package, and scales the
op's wall time by REFERENCE_LOOP_S / (the median loop time over the nine
ops around it).  Reported times are thus wall times at the host speed at
which the loop takes REFERENCE_LOOP_S; the constant sets only the scale,
so the ratio of two runs does not depend on it.  The unscaled figures are
printed beside them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

MODULES = ("cli", "clans", "oracle", "permutations", "richardson", "weak_order")

# Set-up (import, input generation, warm-up) is repeated this many times in
# one run and its median reported, because a single import is too short to
# time steadily.
SETUP_REPS = 5

# Per-op failure messages printed to stderr; the rest are only counted.
SHOWN_FAILURES = 5

# Typical time of _speed_loop on the machine the benchmark was tuned on
# (2 vCPUs, Python 3.11).
REFERENCE_LOOP_S = 0.0003
# Ops on each side of an op whose loop times set its speed factor.
SPEED_NEIGHBOURS = 4


def _speed_loop() -> int:
    # Sorting and set building: comparisons, list and set churn, much like
    # the package's own inner loops.
    xs = [(i * 7919) % 1009 for i in range(2000)]
    return sorted(xs)[0] + sum(sorted(set(xs)))


def loop_seconds() -> float:
    """Time one run of the speed loop, with no garbage collection inside."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _speed_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factors(loops: list[float]) -> list[float]:
    """Per op: REFERENCE_LOOP_S over the median loop time of its neighbours."""
    k = SPEED_NEIGHBOURS
    return [REFERENCE_LOOP_S / statistics.median(loops[max(0, i - k): i + k + 1])
            for i in range(len(loops))]


def load_package(src: Path) -> SimpleNamespace:
    """Import the package fresh from ``src``, dropping any earlier import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "schubert_clans"]:
        del sys.modules[name]
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"schubert_clans.{m}") for m in MODULES}
    )
    origin = Path(pkg.cli.__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise ImportError(f"schubert_clans was imported from {origin}, not from {src}")
    return pkg


# The oracle's Schubert cache is private and process-global; these two
# functions are the only places the benchmark touches it.
def clear_oracle_cache(pkg) -> None:
    pkg.oracle._SCHUBERT_CACHE.clear()


def oracle_cache_size(pkg) -> int:
    return len(pkg.oracle._SCHUBERT_CACHE)


def call_cli(main, argv) -> tuple[int | None, str, float, str]:
    """Run one CLI call, capturing stdout; returns (status, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed op; the run goes on
            status = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if status not in (0, None):
        error = err.getvalue()
    return status, out.getvalue(), elapsed, error


def set_up(workload, seed: int, src: Path):
    """Import, generate the seeded pass and warm up, SETUP_REPS times.

    Returns the package and pass of the last repetition and the median
    set-up time, scaled to the reference host speed and unscaled.
    """
    times, raw = [], []
    ops = None
    for _ in range(SETUP_REPS):
        loops = [loop_seconds() for _ in range(2 * SPEED_NEIGHBOURS + 1)]
        start = time.perf_counter()
        pkg = load_package(src)
        fresh = workload.make_ops(pkg, random.Random(seed))
        call_cli(pkg.cli.main, workload.warmup)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * REFERENCE_LOOP_S / statistics.median(loops))
        if ops is not None and fresh != ops:
            raise RuntimeError(f"{workload.name}: seed {seed} gave two different passes")
        ops = fresh
    return pkg, ops, statistics.median(times), statistics.median(raw)


@dataclass
class Measurement:
    latencies: list[float]  # wall time of each op inside main()
    intervals: list[float]  # wall time of each op's slot in the timed window
    loops: list[float]  # speed-loop time taken just before each op
    passes: int
    failed: int
    cache_peak: int

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(pkg, workload, ops, seconds: float, tracer=None) -> Measurement:
    """Repeat whole passes until the timed window reaches ``seconds``.

    The window is the sum of the op intervals.  Output checks run between
    ops, outside it; an output byte-identical to one that already passed
    its check for the same op is accepted by digest.
    """
    latencies: list[float] = []
    intervals: list[float] = []
    loops: list[float] = []
    verified: dict[int, bytes] = {}
    window = 0.0
    passes = failed = cache_peak = 0
    # What set-up left alive (modules, the pass) is frozen out of the
    # collector, so the collection before each op is cheap and the
    # program's own collections do not walk the benchmark's data.
    gc.collect()
    gc.freeze()
    while passes == 0 or window < seconds:
        if tracer is not None:
            tracer.record = passes == 0
        for index, op in enumerate(ops):
            if workload.cold_oracle:
                clear_oracle_cache(pkg)
            # Each op starts from a collected heap, as a fresh CLI call does,
            # so no op pays for garbage left by earlier ops or by the checks.
            gc.collect()
            loops.append(loop_seconds())
            started = time.perf_counter()
            if tracer is not None:
                tracer.op_id += 1
            status, out, elapsed, error = call_cli(pkg.cli.main, op.argv)
            intervals.append(time.perf_counter() - started)
            window += intervals[-1]
            latencies.append(elapsed)
            cache_peak = max(cache_peak, oracle_cache_size(pkg))

            if status != 0:
                problem = f"exit status {status}\n{error}"
            else:
                digest = hashlib.blake2b(out.encode(), digest_size=16).digest()
                if verified.get(index) == digest:
                    problem = None
                else:
                    with tracer.suspended() if tracer is not None else contextlib.nullcontext():
                        try:
                            problem = workload.check(pkg, op, out)
                        except Exception:  # malformed output fails the op, not the run
                            problem = traceback.format_exc()
                    if problem is None:
                        verified[index] = digest
            if problem is not None:
                failed += 1
                if failed <= SHOWN_FAILURES:
                    print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        passes += 1
    gc.unfreeze()
    return Measurement(latencies, intervals, loops, passes, failed, cache_peak)


def end_to_end(m: Measurement, setup_s: float, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of one run, as name -> (value, unit).

    Times are scaled to the reference host speed unless ``scaled`` is false.
    """
    factors = speed_factors(m.loops) if scaled else [1.0] * m.attempted
    ms = sorted(1000.0 * t * f for t, f in zip(m.latencies, factors))
    window = sum(t * f for t, f in zip(m.intervals, factors))
    return {
        "ops_per_s": ((m.attempted - m.failed) / window, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "failed_ratio": (m.failed / m.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
