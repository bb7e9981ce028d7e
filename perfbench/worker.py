"""One process of the ccslab benchmark; ``run.py`` starts it and reads its
last stdout line, a JSON object.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED SECONDS

``setup`` times importing ccslab (all submodules, the CLI included) and
building the workload's inputs.  ``measure`` runs the closed loop for SECONDS
with tracing off.  ``trace`` repeats a fixed seeded batch of ops, untraced and
traced in alternating order, until SECONDS have passed, and reports the
median of each per-layer metric.
"""

import time

T_PROCESS = time.perf_counter()  # set-up starts before ccslab is imported

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports ccslab)

OUT_DIR = os.path.join(ROOT, ".bench_out")
# percentile reported as latency_tail_ms, with at least ten samples beyond it
# in a 20 s run on a 2-CPU machine; each lies inside one cost class of its
# workload (see README.md)
TAIL_PERCENTILE = {"certify": 85, "table": 99, "props": 90, "sweep": 90}
LATENCY_RESERVOIR = 1 << 18
UNITS_PER_OP = {"props": workloads.N_PER_CLAIM * len(workloads.propositions.PROPOSITION_NAMES)}


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


class Loop:
    """Closed-loop runner: runs ops in sequence, times each, tallies failures."""

    def __init__(self, name: str, workload):
        self.name = name
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_ok = {}  # op index -> ok, for ops covered by the fingerprint
        self.digests = []
        self.errors = []
        self.nbytes = 0

    def run_op(self, i: int) -> float:
        t0 = time.perf_counter()
        try:
            out = self.workload.op(i)
        except Exception:  # a failing op is counted, not fatal
            out = workloads.Outcome(False, units=UNITS_PER_OP.get(self.name, 1))
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - t0
        self.attempted += out.units
        self.failed += 0 if out.ok else out.units
        self.nbytes += out.nbytes
        if i < workloads.FINGERPRINT_OPS[self.name] and i not in self.first_ok:
            self.first_ok[i] = out.ok
            self.digests.append(out.digest)
        return elapsed

    def final_check(self):
        """Workload-level checks after the loop (table: cells equal run_golden_table())."""
        final_failures = getattr(self.workload, "final_failures", None)
        if final_failures is None:
            return
        for j in final_failures():
            if self.first_ok.get(j):
                self.first_ok[j] = False
                self.failed += 1

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "fingerprint": workloads.fingerprint(self.digests),
            "fingerprint_ops": len(self.digests),
        }


def measure(name: str, workload, seconds: float, max_ops=None) -> dict:
    """Closed loop for ``seconds``.  ops_per_s is the median rate over whole
    batches (one cycle of the workload's mix each), so a few seconds of
    interference from other processes move it less than a whole-run rate."""
    loop = Loop(name, workload)
    # A preallocated reservoir sample of latencies, so the process's memory
    # does not grow with the number of ops a faster program completes.
    latencies = array("d", [0.0]) * LATENCY_RESERVOIR
    pick = random.Random(0)
    batch = workloads.BATCH[name]
    batch_rates = []
    start = batch_start = time.perf_counter()
    batch_units = loop.attempted
    deadline = start + seconds
    i = 0
    while True:
        elapsed_op = loop.run_op(i)
        slot = i if i < LATENCY_RESERVOIR else pick.randrange(i + 1)
        if slot < LATENCY_RESERVOIR:
            latencies[slot] = elapsed_op
        i += 1
        now = time.perf_counter()
        if i % batch == 0:
            batch_rates.append((loop.attempted - batch_units) / (now - batch_start))
            batch_start, batch_units = now, loop.attempted
        if now >= deadline or (max_ops is not None and i >= max_ops):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = now - start
    loop.final_check()
    latencies = sorted(latencies[:min(i, LATENCY_RESERVOIR)])
    p = TAIL_PERCENTILE[name]
    tail = percentile(latencies, p)
    return dict(
        loop.summary(),
        ops=i,
        elapsed_s=elapsed,
        batches=len(batch_rates),
        ops_per_s=statistics.median(batch_rates) if batch_rates else loop.attempted / elapsed,
        latency_p50_ms=percentile(latencies, 50) * 1e3,
        latency_tail_ms=tail * 1e3,
        tail_percentile=p,
        tail_beyond=sum(1 for x in latencies if x > tail),
        peak_rss_mb=peak_rss_mb,
    )


def src_line_counts(modules) -> dict:
    """Lines of each named src/ccslab module (0 once it is gone) and of all of src/ccslab."""
    pkg = os.path.join(ROOT, "src", "ccslab")
    lines = {}
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines[fname[:-3]] = sum(1 for _ in fh)
    counts = {f"src_lines.{m}": lines.get(m, 0) for m in modules}
    counts["src_lines.total"] = sum(lines.values())
    return counts


def trace(name: str, workload, seconds: float, seed: int) -> dict:
    import tracer as tracing

    loop = Loop(name, workload)
    batch = workloads.BATCH[name]
    tr = tracing.Tracer()
    start = time.perf_counter()

    def run_batch(traced: bool) -> tuple:
        units0, bytes0 = loop.attempted, loop.nbytes
        if traced:
            tr.clear()
            tr.install()
        t0 = time.perf_counter()
        try:
            for i in range(batch):
                if traced:
                    tr.begin_op(i)
                loop.run_op(i)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tr.uninstall()
        return wall, loop.attempted - units0, loop.nbytes - bytes0

    repeats = []
    while not repeats or time.perf_counter() - start < seconds:
        traced_first = len(repeats) % 2 == 1
        if traced_first:
            traced_wall, units, nbytes = run_batch(True)
            untraced_wall, _, _ = run_batch(False)
        else:
            untraced_wall, _, _ = run_batch(False)
            traced_wall, units, nbytes = run_batch(True)
        metrics = tracing.layer_metrics(tr, units, nbytes)
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        if not repeats:
            os.makedirs(OUT_DIR, exist_ok=True)
            tr.save(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz"))
        repeats.append(metrics)
    loop.final_check()
    per_layer = {k: statistics.median_low(r[k] for r in repeats) for k in repeats[0]}
    per_layer.update(src_line_counts(("__init__",) + tracing.LAYERS))
    return dict(loop.summary(), repeats=len(repeats), batch_ops=batch, per_layer=per_layer)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2])
    workdir = os.path.join(OUT_DIR, f"{role}-{name}-{os.getpid()}")
    workload = workloads.make(name, seed, workdir)
    try:
        if role == "setup":
            result = {"setup_s": time.perf_counter() - T_PROCESS}
        elif role == "measure":
            result = dict(measure(name, workload, float(argv[3])), env=environment())
        elif role == "trace":
            result = dict(trace(name, workload, float(argv[3]), seed), env=environment())
        else:
            raise SystemExit(f"unknown role {role!r}")
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
