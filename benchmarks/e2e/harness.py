"""Run one workload in this process and print its result as JSON.

``run.py`` starts this script in a fresh child process per workload,
with a pinned environment, so ``peak_rss_mb`` belongs to one workload
and no stray ``REPRO_*`` export changes the program under test.  The
last line of standard output is the result record; the first wrong
answer, if any, goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from loop import (  # noqa: E402
    Clients, check, closed_loop, percentile, timed_build,
)
from workloads import WORKLOADS, Workload  # noqa: E402

#: Ops every workload issues in ``--smoke`` mode.
SMOKE_OPS = 20
#: Ops the traced run replays (tracing on, and again off).
TRACE_OPS = 20


def measure(workload: Workload, seconds: float, smoke: bool) -> dict:
    """The end-to-end run, then the oracle check outside the timed
    region.

    The program is set up once before the measured ``seconds``.  The
    closed loop then runs in ``workload.setups`` equal chunks of them,
    and between two chunks the program is set up again (timed, then
    discarded).  Set-up times are thus sampled across the whole run,
    not in one burst that a slow second of the host can cover, and
    ``setup_s`` is their median.  Throughput counts loop time only.
    """
    state, first = timed_build(workload)
    setups = [first]
    clients = Clients.start(workload)
    quota = max(1, SMOKE_OPS // workload.clients) if smoke else None
    chunks = workload.setups
    started = time.perf_counter()
    wall_s = 0.0
    for chunk in range(1, chunks + 1):
        if chunk > 1:
            spare, elapsed = timed_build(workload)
            workload.close(spare)
            del spare
            setups.append(elapsed)
        wall_s += closed_loop(
            workload, state, clients,
            deadline=started + seconds * chunk / chunks,
            quota=None if quota is None else quota * chunk // chunks,
        )
    workload.close(state)
    samples = [sample for client in clients.samples for sample in client]
    failures = check(workload, clients.samples)
    # Modeled cost over a fixed request prefix, so it repeats exactly
    # for a seed however many requests the time allowed.
    prefix = [
        sample.outcome.modeled_ms
        for client in clients.samples
        for sample in client[:workload.modeled_prefix]
        if sample.outcome is not None
    ]
    latencies = [sample.latency_ms for sample in samples]
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_ops_per_s": len(samples) / wall_s,
            "modeled_ms_per_op": (
                statistics.fmean(prefix) if prefix else 0.0
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        },
        # Latency percentiles are reported, not gated.  With a fixed
        # number of closed-loop clients the mean latency follows from
        # the throughput, which is gated; the percentiles also follow
        # the share of a run the host spends in slow streaks.
        "detail": {
            "samples": len(latencies),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "latency_p99_ms": percentile(latencies, 99),
            "setup_runs_s": setups,
            "wall_s": wall_s,
            "modeled_ops": len(prefix),
        },
    }


# -- host fingerprint -------------------------------------------------------


def git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` reports ``unknown``)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def fingerprint(args: argparse.Namespace, workload: Workload) -> dict:
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "system": f"{platform.system()} {platform.release()}",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": workload.sizes(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-dir", type=pathlib.Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.trace:
        from tracing import traced_run

        record = traced_run(workload, TRACE_OPS, args.trace_dir)
    else:
        record = measure(workload, args.seconds, args.smoke)
    if record["failures"]:
        print(f"first mismatch: {record['failures'][0]}", file=sys.stderr)
    record.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        fingerprint=fingerprint(args, workload),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
