"""Benchmark of the ``bargmann`` command line, driven in-process.

    python3 perfbench/run.py --workload pairs-d4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. One caller runs one op at a time through ``bargmann.cli.main`` (a
closed loop with one client) until the ops' own timed durations add up to
``--seconds``; each op's outputs are checked against numpy references after
its timer stops. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
traces half of the ops (see ``_loop``) and reports the per-layer metrics of
``tracing.py``. See README.md in this directory for how to read
the output.

The last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it records the environment, the error rate, the tail's
percentile and sample count, the reasons ops failed, and the known defects
the workload probes before its timed loop (``Workload.probe``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread, so the one client keeps to one core on any machine. Set
# before the imports below load numpy.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh-process set-up samples per run, spread evenly over the timed loop.
SETUP_SAMPLES = 15
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# Below this many samples the tail is the maximum (see _tail).
TAIL_FLOOR = 2 * TAIL_BEYOND + 1


class _SetupClock:
    """Wall times of fresh ``import bargmann.cli`` processes."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.times: list[float] = []

    def sample_until(self, count: int) -> None:
        while len(self.times) < count:
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import bargmann.cli"], env=self.env,
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.times.append(perf_counter() - start)


def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (f"{(index / 'size').read_text().strip()} shared by cpus "
                                       f"{(index / 'shared_cpu_list').read_text().strip()}")
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
    }


def _loop(cli, ops, seconds, failures: Counter, setup=None, tracer=None):
    """Closed loop: next op only after the previous returned and was checked.

    Runs until the ops' own durations add up to ``seconds``. With ``setup``,
    takes SETUP_SAMPLES set-up samples spread over the loop, the last after
    it. With ``tracer``, traces every other op of each kind, the kinds
    starting on alternate phases in order of first appearance: traced and
    untraced ops then see the same op mix, interleaved through the same
    machine phases. Returns (latency, traced) per op.
    """
    done: list[tuple[float, bool]] = []
    timed = 0.0
    phase: dict[str, int] = {}
    seen: Counter = Counter()
    # A traced run goes on until it has both traced and untraced ops.
    while timed < seconds or (tracer is not None and len({on for _, on in done}) < 2):
        if setup is not None:
            setup.sample_until(1 + int((SETUP_SAMPLES - 1) * timed / seconds))
        op = next(ops)
        start = phase.setdefault(op.kind, len(phase) % 2)
        traced = tracer is not None and (seen[op.kind] + start) % 2 == 1
        seen[op.kind] += 1
        if traced:
            tracer.op += 1
            tracer.install()
        try:
            elapsed, calls, raised = op.run(cli.main)
        finally:
            if traced:
                tracer.uninstall()
        done.append((elapsed, traced))
        timed += elapsed
        reason = raised or op.check(calls)
        if reason:
            failures[f"{op.kind}: {reason}"] += 1
    if setup is not None:
        setup.sample_until(SETUP_SAMPLES)
    return done


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it.

    Below TAIL_FLOOR samples it is the maximum, so that a run with few ops
    never reads a low order statistic as its tail (at 11 samples the rule
    alone would give the minimum).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_FLOOR:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bargmann" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'bargmann'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bargmann import cli, criteria, states

    WORKDIR.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, WORKDIR, states.GAP_TOL,
                                            criteria.COMMUTE_TOL)
        known_defects = workload.probe(cli.main)
        ops = workload.ops()
        warmup_failures: Counter = Counter()
        for _ in range(workload.warmup_ops):
            op = next(ops)
            _, calls, raised = op.run(cli.main)
            reason = raised or op.check(calls)
            if reason:
                warmup_failures[f"{op.kind}: {reason}"] += 1

        failures: Counter = Counter()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": _environment()}
        workload.invariant_counts.clear()
        if args.trace == 0:
            setup = _SetupClock()
            latencies = [t for t, _ in _loop(cli, ops, args.seconds, failures, setup=setup)]
            tail, pct, beyond = _tail(latencies)
            metrics = {
                "setup_s": (statistics.median(setup.times), "s"),
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "op_tail_ms": (1e3 * tail, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            detail["op_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                 "samples": len(latencies)}
            detail["setup_samples"] = len(setup.times)
            attempted = len(latencies)
        else:
            tracer = tracing.Tracer()
            done = _loop(cli, ops, args.seconds, failures, tracer=tracer)
            tracer.write(WORKDIR / f"spans-{args.workload}.tsv")
            traced = [t for t, on in done if on]
            plain = [t for t, on in done if not on]
            metrics = tracing.layer_metrics(tracer.totals(), len(traced), workload.invariant_counts)
            overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            detail["traced_ops"] = len(traced)
            attempted = len(done)
    finally:
        for path in WORKDIR.glob("*.json"):
            path.unlink()

    failed = sum(failures.values())
    detail["error_rate"] = failed / attempted
    detail["failures"] = dict(failures.most_common())
    detail["warmup_failures"] = dict(warmup_failures)
    detail["known_defects"] = known_defects
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
