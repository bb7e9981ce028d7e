"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

For each workload a few ops run through the benchmark's own measuring loop
twice: once with the true expectations, where fail_ratio must be 0, and once
with a deliberately wrong expected verdict or bound fed into the output
check, where fail_ratio must be nonzero.  Exits 0 when both hold for every
workload.
"""

import dataclasses
import os
import sys

from run import THREAD_VARS

for var in THREAD_VARS:
    os.environ[var] = "1"  # before numpy loads

import worker  # noqa: E402  (puts src/ on sys.path and imports ccslab)
import workloads  # noqa: E402


def _flipped_row(family, params):
    row = workloads.families.expected_table_row(family, params)
    return dataclasses.replace(row, is_ccs=not row.is_ccs)


# workload -> (what is wrong, how to corrupt it, ops to run)
CORRUPTIONS = {
    "certify": ("expected triviality 'strong'", lambda w: w.expect.update(triviality="strong"), 4),
    "table": ("reference rows with is_ccs flipped", lambda w: w.expect.update(row=_flipped_row), 66),
    "props": ("every claim expected to fail", lambda w: w.expect.update(passed=False), 1),
    "sweep": ("correlation bound 0.01 instead of 1/4", lambda w: w.expect.update(bound=0.01), 200),
}


def fail_ratio(name: str, corrupt, ops: int) -> float:
    workdir = os.path.join(worker.OUT_DIR, f"selftest-{name}-{os.getpid()}")
    w = workloads.make(name, seed=1, workdir=workdir)
    try:
        if corrupt is not None:
            corrupt(w)
        r = worker.measure(name, w, seconds=120.0, max_ops=ops)
    finally:
        w.close()
    return r["failed"] / r["attempted"]


def main() -> int:
    ok = True
    for name, (what, corrupt, ops) in CORRUPTIONS.items():
        clean = fail_ratio(name, None, ops)
        broken = fail_ratio(name, corrupt, ops)
        passed = clean == 0.0 and broken > 0.0
        ok &= passed
        print(f"{'pass' if passed else 'FAIL'} {name}: fail_ratio {clean:g} as is, "
              f"{broken:g} with {what} ({ops} ops)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
