"""gkexpand benchmark: one seeded closed-loop workload, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload combo-pairs --seed 1 --seconds 20 --trace 0

Every measurement happens in fresh child interpreters (``child.py``), one
at a time, single-threaded, with ``src`` on PYTHONPATH, OPENBLAS, OMP and
MKL pinned to one thread, and glibc's malloc thresholds fixed.  Untraced
(``--trace 0``), several children only set up and run the first op, and
one more also runs the timed loop; the result carries the end-to-end
metrics.  Traced (``--trace 1``), one untraced and one traced child each
run the timed loop for half the time; the result carries the per-layer
metrics and the tracing overhead.

Times are scaled to a reference CPU speed by a calibration task timed in
the same process (see child.py); the raw times are printed alongside.

Human-readable lines (machine facts, digest, every metric) come first; the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import TARGETS, target_name  # noqa: E402

# Fresh interpreters that only set up and run their first op, besides the
# one that also runs the timed loop; setup_s and first_op_ms are medians
# over all of them.  Interpreter i runs op i of the stream first, so with
# 12 of them the first ops cover the mixed workloads' cycles of 2 and 3
# kinds evenly, whatever the seed's order.
SETUP_ONLY_CHILDREN = 11

# Whole-run budget, under the 180 s a run may take.
RUN_BUDGET_S = 170.0

OUT_DIR = Path(".perfbench-out")

# Useful-work counters: a ratio plus the count and base it is taken from.
USEFUL_RATIOS = (
    "expansion.terms_alive_ratio",
    "blocks.row_values.nonzero_ratio",
    "probe._quad_form.nonzero_pair_ratio",
)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, attr, _ in TARGETS:
        name = target_name(module, attr)
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
        units[f"{name}.items"] = "count/op"
    units["expansion.basis_log_values.bytes_out"] = "B/op"
    units["setup.import_s"] = "s"
    units["setup.build_s"] = "s"
    for ratio in USEFUL_RATIOS:
        units[ratio] = "ratio"
        units[f"{ratio}.count"] = "count"
        units[f"{ratio}.base"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


class ChildFailed(RuntimeError):
    pass


# glibc adjusts its mmap and trim thresholds as a process frees blocks, so
# the multi-megabyte numpy temporaries of the combo ops either reuse heap
# pages or fault in fresh ones on every op, by the luck of each process:
# 1.9k against 31k minor faults per combo-norms op, 205 against 255 ms.
# Fixed thresholds above every temporary keep all children on one path.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(MALLOC_ENV)
    return env


def run_child(args, deadline: float, *extra: str) -> dict:
    """Launch one fresh interpreter and return its measurement record."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.tiny:
        cmd.append("--tiny")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--launched", repr(launched), *extra]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {' '.join(cmd)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child printed no record: {' '.join(cmd)}")
    return json.loads(lines[-1])


def reference_digest(workload: str, seed: int, tiny: bool) -> str | None:
    if tiny:
        return None
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return table.get(workload, {}).get(str(seed))


def end_to_end(args, deadline: float, units: dict[str, str]) -> tuple[dict, list[dict]]:
    main = run_child(args, deadline, "--seconds", str(args.seconds))
    samples = [main] + [
        run_child(args, deadline, "--setup-only", "--skip", str(i))
        for i in range(1, SETUP_ONLY_CHILDREN + 1)
    ]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(f"timed phase: {main['timed_ops']} ops (the latency sample count); "
          f"setup and first-op medians over {len(samples)} fresh interpreters")
    print(f"raw, unscaled: ops_per_s {main['raw_ops_per_s']!r} op_p50_ms {1e3 * main['raw_p50_s']!r} "
          f"op_p90_ms {1e3 * main['raw_p90_s']!r} setup_s {statistics.median(s['setup_s'] for s in samples)!r} "
          f"first_op_ms {statistics.median(1e3 * s['first_op_s'] for s in samples)!r}")
    print(f"speed calibration: median {1e3 * main['calibration_median_s']!r} ms over "
          f"{main['calibrations']} timings in the timed phase")
    values = {
        "setup_s": statistics.median(s["setup_s"] * s["speed_scale"] for s in samples),
        "first_op_ms": statistics.median(1e3 * s["first_op_s"] * s["speed_scale"] for s in samples),
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": 1e3 * main["p50_s"],
        "op_p90_ms": 1e3 * main["p90_s"],
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "ok_op_ratio": 1.0 - failed / attempted,
    }
    return {k: (v, units[k]) for k, v in values.items()}, samples


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    half = str(args.seconds / 2.0)
    plain = run_child(args, deadline, "--seconds", half)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}.csv"
    traced = run_child(args, deadline, "--seconds", half, "--spans", str(spans))
    print(f"spans written to {spans}")
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    values.update({k: v for k, (v, _u) in traced["layers"].items()})
    both = (plain, traced)
    values["setup.import_s"] = statistics.median(c["import_s"] * c["speed_scale"] for c in both)
    values["setup.build_s"] = statistics.median(c["build_s"] * c["speed_scale"] for c in both)
    for ratio, (count, base) in traced["useful"].items():
        values[ratio] = count / base if base else 0.0
        values[f"{ratio}.count"] = count
        values[f"{ratio}.base"] = base
    values["trace.overhead_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
    return {k: (v, units[k]) for k, v in values.items()}, [plain, traced]


def main(argv=None) -> int:
    if not Path("BENCHMARK.json").is_file() or not Path("src/gkexpand/__init__.py").is_file():
        print("run.py: no BENCHMARK.json or src/gkexpand here; run it from the root of a gkexpand checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes (see selftest.py)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            metrics, children = per_layer(args, deadline)
        else:
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            metrics, children = end_to_end(args, deadline, units)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    looped = [c for c in children if "digest" in c]
    digests = {c["digest"] for c in looped}
    digest = looped[0]["digest"]
    reference = reference_digest(args.workload, args.seed, args.tiny)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(looped[0]["facts"], sort_keys=True))
    verdict = "none" if reference is None else ("match" if reference == digest else "DIFFERS")
    print(f"digest sha256={digest} children_agree={len(digests) == 1} reference={verdict}")
    print(f"failed_op_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": failed == 0 and digest is not None and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
