"""Record the reference output digests that run.py compares against.

    PYTHONPATH=src python3 perfbench/record_digests.py

For each workload at full size and each seed in 0..SEEDS-1,
runs the digest prefix of the op stream and writes the SHA-256 of its
results to perfbench/digests.json.  A run whose seed is in the table
prints ``reference=match`` or ``reference=DIFFERS``, so a change that
alters any output byte of the prefix is named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import Tally, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 32


def prefix_digest(workload, inputs, seed: int) -> str:
    tally = Tally(workload, inputs)
    ops = workload.ops(seed)
    while not tally.prefix_done:
        run_op(workload, inputs, next(ops), tally)
    if tally.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {tally.failed} failed ops")
    return tally.digest()


def main() -> int:
    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs = workload.build()
        table[name] = {str(s): prefix_digest(workload, inputs, s) for s in range(SEEDS)}
        print(f"{name}: {SEEDS} seeds", flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
