"""Fast self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py      # from the root of a checkout

Checks that:
  * BENCHMARK.json, records.json, workloads.py and run.py name the same
    workloads and metrics, with the same per-layer units;
  * a tiny run of every workload, untraced and traced, prints every metric
    by name with its unit, reports no failed op, and yields one digest;
  * perturbed results fed to each workload's checker, and an op that
    raises, count as failed ops; for probe-certify these include a verifier
    whose quadratic form is off and row sums that are too small.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from child import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_definitions(bench: dict) -> None:
    records = json.loads((HERE / "records.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(WORKLOADS), "workload names agree")
    expect(sorted(records["workloads"]) == sorted(names), "records.json covers every workload")
    e2e = [m["name"] for m in bench["end_to_end"]]
    expect(sorted(records["end_to_end"]) == sorted(e2e), "records.json describes every end-to-end metric")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layer == run.per_layer_units(), "per-layer metrics and units agree")


def check_run(bench: dict, workload: str, trace: int) -> None:
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        expect(False, f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, no failed op")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _value, unit = line.split()
            printed[name] = unit
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        ok = got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
        expect(ok and printed.get(m["name"]) == m["unit"], f"{tag}: {m['name']} printed in {m['unit']}")
    expect(len(result["metrics"]) == len(listed), f"{tag}: no unlisted metric")
    expect(any(line.startswith("digest") and "children_agree=True" in line for line in lines),
           f"{tag}: one digest across children")


def perturbed(workload, inputs, op, result) -> list:
    """The same result with its payload changed enough to break the oracle."""
    name = workload.name
    if name in ("combo-pairs", "short-series"):
        series, exact, bound = result
        return [(series + 1e-6, exact, bound)]
    if name == "combo-norms":
        return [[(s, x, v * 1.1) for s, x, v in result]]
    cert, verdict, rows = result
    from gkexpand import probe
    from dataclasses import replace

    bad = replace(cert, points=tuple(reversed(cert.points)))
    profile = probe.PROFILES[op]
    return [
        (bad, probe.verify_certificate(bad, profile, inputs["template"]), rows),
        (cert, replace(verdict, quad_form=verdict.quad_form + 1e-9), rows),
        (cert, verdict, [(i, 0.0, b) for i, _s, b in rows]),
    ]


def check_failures_count() -> None:
    for name, cls in WORKLOADS.items():
        workload = cls(tiny=True)
        inputs = workload.build()
        op = next(workload.ops(7))
        good = workload.run(inputs, op)
        tally = Tally(workload, inputs)
        tally.record(op, good, None)
        bad = perturbed(workload, inputs, op, good)
        for result in bad:
            tally.record(op, result, None)
        tally.record(op, None, RuntimeError("op raised"))
        expect((tally.attempted, tally.failed) == (len(bad) + 2, len(bad) + 1),
               f"{name}: perturbed results and a raised op count as failed ({tally.failed}/{tally.attempted})")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_definitions(bench)
    check_failures_count()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(bench, workload, trace)
    print(f"selftest: {'FAIL' if FAILURES else 'PASS'} ({len(FAILURES)} failed)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
