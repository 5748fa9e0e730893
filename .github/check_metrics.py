"""Check the count/op metrics of a traced `perfbench/run.py` output.

    python3 .github/check_metrics.py OUTPUT NAME=VALUE [NAME=VALUE ...]

Each NAME must appear on a ``metric NAME VALUE count/op`` line of OUTPUT
within 1e-9 of VALUE: the tracer divides counts by the op count in floats,
so a count of 1 per op may print as 0.9999999999999999.  Prints one line
per check and exits 1 if any fails.
"""

import sys


def main(path: str, *checks: str) -> int:
    found = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric" and parts[3] == "count/op":
                found[parts[1]] = float(parts[2])
    failed = not checks
    for check in checks:
        name, want = check.split("=")
        got = found.get(name)
        ok = got is not None and abs(got - float(want)) <= 1e-9
        failed |= not ok
        print(f"{'ok' if ok else 'FAIL'} {name} {got} count/op, want {want}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
