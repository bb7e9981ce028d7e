"""The ccslab benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/ccslab``.  Workloads:
certify, table, props, sweep (see README.md).  With ``--trace 0`` it prints the
end-to-end metrics: ``setup_s`` (median over fresh processes) and the
closed-loop ``ops_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb`` of one measuring process.  With ``--trace 1`` it prints the
per-layer metrics of a separate traced process.  Human-readable lines come
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every child runs with BLAS and OpenMP limited to one thread, one client and
one process at a time.  It exits non-zero, printing no result, when the
checkout has no ``src/ccslab`` or a child fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify", "table", "props", "sweep")
SETUP_PROBES = 9  # measured fresh processes, after one warm-up that compiles bytecode
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(role: str, workload: str, seed: int, seconds=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, workload, str(seed)]
    if seconds is not None:
        cmd.append(str(seconds))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_identity() -> dict:
    """The commit when the checkout is a git repository, and always a hash of src/."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "ccslab")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple:
    probes = [run_child("setup", args.workload, args.seed) for _ in range(SETUP_PROBES + 1)]
    setup_s = statistics.median(p["setup_s"] for p in probes[1:])
    r = run_child("measure", args.workload, args.seed, args.seconds)
    print(f"setup_s {setup_s:.6f} s (median of {SETUP_PROBES} fresh processes)")
    print(f"ops_per_s {r['ops_per_s']:.4f} 1/s (median over {r['batches']} batches; "
          f"{r['attempted']} ops in {r['elapsed_s']:.2f} s)")
    print(f"latency_p50_ms {r['latency_p50_ms']:.4f} ms (n={r['ops']})")
    print(f"latency_tail_ms {r['latency_tail_ms']:.4f} ms "
          f"(p{r['tail_percentile']}, {r['tail_beyond']} samples beyond, n={r['ops']})")
    print(f"peak_rss_mb {r['peak_rss_mb']:.3f} MB")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(r["ops_per_s"], "1/s"),
        "latency_p50_ms": metric(r["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(r["latency_tail_ms"], "ms"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
    }
    return r, metrics


UNITS = (
    (".self_s", "s"), (".calls", "count"), (".per_op", "count/op"), ("_ratio", "ratio"),
    (".bytes_per_op", "B/op"), ("src_lines.", "lines"), ("trace.spans", "count"),
)


def unit_of(name: str) -> str:
    for marker, unit in UNITS:
        if marker in name:
            return unit
    raise BenchError(f"no unit for per-layer metric {name}")


def traced(args) -> tuple:
    r = run_child("trace", args.workload, args.seed, args.seconds)
    layer = r["per_layer"]
    print(f"# traced batch of {r['batch_ops']} ops, median of {r['repeats']} repeats; "
          f"spans in .bench_out/spans-{args.workload}-seed{args.seed}.npz")
    total = sum(layer[f"{name}.self_s"] for name in LAYERS) or 1.0
    for name in LAYERS:
        share = 100.0 * layer[f"{name}.self_s"] / total
        print(f"layer {name:13s} self {layer[f'{name}.self_s']:.6f} s  {share:5.1f}%  "
              f"calls {layer[f'{name}.calls']}")
    print(f"trace.overhead_ratio {layer['trace.overhead_ratio']:.4f}")
    metrics = {k: metric(v, unit_of(k)) for k, v in layer.items()}
    return r, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "ccslab", "__init__.py")):
        print(f"error: no ccslab sources under {SRC}", file=sys.stderr)
        return 2
    print(f"# ccslab benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        r, metrics = (traced if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# env {json.dumps(dict(r['env'], **code_identity()))}")
    for err in r["errors"]:
        print(f"# op error: {err}", file=sys.stderr)
    ratio = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"fail_ratio {ratio:.6g} ({r['failed']}/{r['attempted']})")
    print(f"fingerprint {args.workload} seed={args.seed} first {r['fingerprint_ops']} ops: {r['fingerprint']}")
    print(json.dumps({
        "correct": r["failed"] == 0 and r["attempted"] > 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
