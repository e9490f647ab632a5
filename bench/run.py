"""ckdual benchmark: time to verdict per CLI workload, plus per-layer costs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's matrix files from the seed (``workloads.py``), measures set-up
(interpreter start, ``import ckdual`` and loading those files) several times,
then has one worker run closed-loop passes over the workload for about S
seconds, one CLI invocation at a time, each in a fresh fork (``worker.py``).
Every verdict is checked against the paper's predictions (``checks.py``).

With ``--trace 0`` the last line reports the end-to-end metrics ``wall_s``,
``peak_rss_mib`` and ``setup_s``.  With ``--trace 1`` every call is followed
by a traced call on the same input, and the last line reports the per-layer
metrics taken by ``tracer.py`` plus ``trace.overhead_frac``.  Lines before it are a readable
summary, including ``failed_frac``.  See README.md in this directory for what
each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
WORKER_GRACE_S = 120


def _start_worker(plan_path: str, setup_only: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # A session of its own lets a timeout kill the worker and its forked children together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, 0)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout: float) -> str:
    """Wait for the worker's output; kill its whole session if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def measure(args, workdir: str) -> tuple:
    wl = workloads.build(args.workload, args.seed)
    plan = {
        "src": SRC,
        "workdir": workdir,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "record_digests": args.record_digests,
        "digests": os.path.join(HERE, "digests.json"),
        "matrix_paths": wl.write_matrices(workdir),
    }
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        proc, setup = _start_worker(plan_path, setup_only=True)
        _finish(proc, WORKER_GRACE_S)
        setups.append(setup)
    proc, setup = _start_worker(plan_path, setup_only=False)
    setups.append(setup)
    out = _finish(proc, args.seconds + WORKER_GRACE_S)
    return json.loads(out.strip().splitlines()[-1]), setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the verdict digests of seed {workloads.DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ckdual", "__init__.py")):
        print(f"error: no ckdual source tree at {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {workloads.DEFAULT_SEED}")

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        res, setups = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in res["passes"] if not p["traced"]]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(res['passes']) - len(untraced)} traced passes of "
          f"{len(res['invocations'])} invocations")
    for m in res["invocations"]:
        basis = f" basis={m['basis']}" if m["basis"] else ""
        wall = f"{statistics.median(m['wall_s']):.4f} s" if m["wall_s"] else "-"
        print(f"  {m['label']:<32} n={m['n']:<4} nnz={m['nnz']:<5}{basis:<14} "
              f"wall={wall} rss={m['rss_mib']:.1f} MiB")
    for msg in res["problems"][:20] + res["trace_problems"][:20]:
        print(f"  FAIL {msg}")

    if args.trace:
        traced_wall = statistics.median([p["wall"] for p in res["passes"] if p["traced"]])
        untraced_wall = statistics.median([p["wall"] for p in untraced])
        metrics = {name: statistics.median([layer[name] for layer in res["layers"]])
                   for name in res["layers"][0]}
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    else:
        metrics = {
            "wall_s": statistics.median([p["wall"] for p in untraced]),
            "peak_rss_mib": statistics.median([p["rss_mib"] for p in untraced]),
            "setup_s": statistics.median(setups),
        }
    print(f"  failed_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} invocations)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    correct = failed == 0 and not res["trace_problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    return {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}.get(name) or tracer.unit(name)


if __name__ == "__main__":
    sys.exit(main())
