"""One benchmark client: a fresh interpreter running one workload's loop.

Run from the root of a checkout, with ``src`` on PYTHONPATH and the BLAS
thread counts pinned to 1 (``run.py`` sets both):

    python3 perfbench/child.py --workload combo-pairs --seed 1 \\
        --launched <CLOCK_MONOTONIC at launch> --seconds 20

It builds the workload's inputs, times the first op, runs the warm-up ops,
then times a closed loop -- the next op starts only when the previous one
has finished and been checked -- for ``--seconds``, and at least until the
digest prefix is complete.  With ``--setup-only`` it stops after the first
op, which is op ``--skip`` of the stream.  With ``--spans FILE`` the hot
functions are traced during the timed loop, and the useful-work counters
are taken over the prefix afterwards.  The last stdout line is one JSON
object with the measurements.

Times are reported twice: raw, and scaled to a reference CPU speed.  On a
shared machine, co-tenant load slows every instruction of this process by
up to half for seconds at a time, with no steal time to show for it, so
raw times of identical runs differ by 20-35% (interquartile range over
median).  A fixed calibration task that does not touch gkexpand -- a
pure-Python loop plus numpy ufuncs, the two kinds of work the ops do -- is
timed every CALIBRATE_EVERY_S, and each op's time is multiplied by
REFERENCE_CALIBRATION_S / (the latest calibration time).  The scaled times
read as milliseconds on a machine where the calibration task takes
REFERENCE_CALIBRATION_S; a change to gkexpand moves them exactly as it moves
raw times, and their spread across runs is about a fifth of the raw one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array


# How often the calibration task is timed during the timed loop, and the
# calibration time that defines the reference speed: its time on a quiet
# 2-vCPU 2.1 GHz Xeon VM with Python 3.11 and numpy 2.4, so that scaled
# times there read close to raw ones.
CALIBRATE_EVERY_S = 0.25
REFERENCE_CALIBRATION_S = 0.0022

_CALIBRATION_ARRAY = None


def calibrate() -> float:
    """Fastest of three timings of a fixed task that does not touch gkexpand."""
    global _CALIBRATION_ARRAY
    import numpy as np

    if _CALIBRATION_ARRAY is None:
        _CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 100_000)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        np.exp(-_CALIBRATION_ARRAY).sum()
        np.log1p(_CALIBRATION_ARRAY).sum()
        best = min(best, time.perf_counter() - t0)
    return best


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tally:
    """Ops attempted and failed, and the digest of the prefix results.

    An op fails when it raises or when the workload's oracle check rejects
    its result.
    """

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.prefix: list = []
        self._hash = hashlib.sha256()

    def record(self, op, result, error: BaseException | None) -> None:
        index = self.attempted
        self.attempted += 1
        payload = b"raised"
        if error is None:
            try:
                ok = self.workload.check(self.inputs, op, result)
                payload = self.workload.digest_bytes(result)
            except Exception as exc:  # a malformed result fails its op
                print(f"op {index}: result not checkable: {exc!r}", file=sys.stderr)
                ok, payload = False, b"malformed"
        if error is not None or not ok:
            self.failed += 1
        if index < self.workload.prefix_ops:
            self.prefix.append((op, result))
            self._hash.update(payload)

    @property
    def prefix_done(self) -> bool:
        return len(self.prefix) >= self.workload.prefix_ops

    def digest(self) -> str | None:
        return self._hash.hexdigest() if self.prefix_done else None


def run_op(workload, inputs, op, tally: Tally) -> float:
    """Run one op, record it, and return its latency in seconds."""
    error = result = None
    t0 = time.perf_counter()
    try:
        result = workload.run(inputs, op)
    except Exception as exc:  # an op that raises counts as failed
        error = exc
    elapsed = time.perf_counter() - t0
    if error is not None:
        print(f"op {tally.attempted} raised {error!r}", file=sys.stderr)
    tally.record(op, result, error)
    return elapsed


def useful_work(workload, inputs, prefix) -> dict[str, list[int]]:
    """Sum each counter's (count, base) over the prefix ops."""
    totals: dict[str, list[int]] = {}
    for op, result in prefix:
        if result is None:
            continue
        for name, (count, base) in workload.useful_work(inputs, op, result).items():
            acc = totals.setdefault(name, [0, 0])
            acc[0] += count
            acc[1] += base
    return totals


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--skip", type=int, default=0, help="ops of the stream to pass over before the first")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = now()
    import gkexpand  # noqa: F401  (the import is what is timed)
    import_s = now() - t0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    t0 = now()
    inputs = workload.build()
    ops = workload.ops(args.seed)
    built = now()
    for _ in range(args.skip):
        next(ops)
    out = {
        "setup_s": built - args.launched,
        "import_s": import_s,
        "build_s": built - t0,
    }

    tally = Tally(workload, inputs)
    out["first_op_s"] = run_op(workload, inputs, next(ops), tally)
    out["calibration_s"] = calibrate()
    out["speed_scale"] = REFERENCE_CALIBRATION_S / out["calibration_s"]
    if not args.setup_only:
        for _ in range(workload.warmup_ops):
            run_op(workload, inputs, next(ops), tally)

        tracer = None
        if args.spans:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        latencies, scaled = array("d"), array("d")
        busy = scaled_busy = 0.0
        calibrations = []
        start = time.perf_counter()
        calibrated = -math.inf
        while time.perf_counter() - start < args.seconds or not tally.prefix_done:
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                scale = REFERENCE_CALIBRATION_S / calibrations[-1]
                calibrated = time.perf_counter()
            if tracer is not None:
                tracer.current_op = tally.attempted
            t0 = time.perf_counter()
            latency = run_op(workload, inputs, next(ops), tally)
            lap = time.perf_counter() - t0  # the op plus its check
            latencies.append(latency)
            scaled.append(latency * scale)
            busy += lap
            scaled_busy += lap * scale
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw_q = statistics.quantiles(latencies, n=10)
        q = statistics.quantiles(scaled, n=10)
        out.update(
            timed_ops=len(latencies),
            ops_per_s=len(latencies) / scaled_busy,
            p50_s=q[4],
            p90_s=q[8],
            raw_ops_per_s=len(latencies) / busy,
            raw_p50_s=raw_q[4],
            raw_p90_s=raw_q[8],
            calibrations=len(calibrations),
            calibration_median_s=statistics.median(calibrations),
        )
        out["digest"] = tally.digest()
        out["facts"] = machine_facts()
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics(
                len(latencies), REFERENCE_CALIBRATION_S / out["calibration_median_s"]
            )
            out["useful"] = useful_work(workload, inputs, tally.prefix)
            tracer.write(args.spans)
    out.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
