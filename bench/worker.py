"""Benchmark worker: import ckdual once, then run each CLI call in a fresh fork.

    python3 bench/worker.py PLAN_JSON [--setup-only]

The plan (written by ``run.py``) names the source tree, the workload, its
seed and the matrix files.  The worker imports ckdual, loads every matrix
file and prints ``ready``; that is the end of set-up.  Unless
``--setup-only`` is given it then runs passes over the workload: each
invocation is ``cli.main(argv)`` in a child forked from this already-imported
process (a cold process as a user's separate ``ckdual`` call would be, minus
interpreter start-up), with stdout written to a file.  Passes repeat until the
plan's seconds are used.  After the last pass every output is checked
against the paper's predictions, and one JSON summary line is printed.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import time
import traceback

import checks
import tracer
import workloads

clock = time.perf_counter

CHILD_TIMEOUT_S = 150
EXIT_CRASH = 70


def _child(cli, argv, out_path, err_path, dump_path):
    """Run one CLI call in the forked child; never returns."""
    code = EXIT_CRASH
    try:
        signal.alarm(CHILD_TIMEOUT_S)
        sys.stdout = open(out_path, "w", encoding="utf-8")
        sys.stderr = open(err_path, "w", encoding="utf-8")
        if dump_path:
            spans = tracer.Tracer()
            spans.install()
        code = cli.main(argv)
        if dump_path:
            spans.dump(dump_path)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except BaseException:
        traceback.print_exc()
        code = EXIT_CRASH
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _invoke(ctx, stem: str, argv, traced: bool) -> dict:
    """Fork, run one CLI call in the child, and reap it."""
    dump_path = stem + ".trace.json" if traced else ""
    t0 = clock()
    pid = os.fork()
    if pid == 0:
        _child(ctx["cli"], argv, stem + ".out", stem + ".err", dump_path)
    _, status, usage = os.wait4(pid, 0)
    return {
        "wall": clock() - t0,
        "rc": os.waitstatus_to_exitcode(status),
        "rss_kib": usage.ru_maxrss,
        "stem": stem,
        "dump_path": dump_path,
    }


def run_round(ctx, index: int, trace: bool) -> list:
    """One closed-loop pass: each call starts after the previous one exited.

    With ``trace``, every call is followed at once by a traced call on the
    same input, which makes a second, traced pass; the two passes see the same
    machine state, so their ratio measures the tracing overhead.  A pass's
    wall time is the sum of its calls' times from fork to exit.
    """
    kinds = (False, True) if trace else (False,)
    records = {traced: [] for traced in kinds}
    sys.stdout.flush()
    for i, (inv, argv) in enumerate(ctx["calls"]):
        for traced in kinds:
            stem = os.path.join(ctx["outdir"], f"p{index}-{i}{'t' if traced else ''}")
            rec = _invoke(ctx, stem, argv, traced)
            rec.update(label=inv.label, index=i)
            records[traced].append(rec)
    return [{"index": index, "traced": traced, "wall": sum(r["wall"] for r in recs), "records": recs}
            for traced, recs in records.items()]


class Oracle:
    """Facts the checks need from inputs other than the checked one."""

    def __init__(self, matrices, ktheory, zlinalg):
        self._matrices = matrices
        self._ktheory = ktheory
        self._zlinalg = zlinalg
        self._cache = {}

    def base_groups(self, key):
        if ("groups", key) not in self._cache:
            rep = self._ktheory.k_groups(self._matrices[key]).to_json()
            self._cache[("groups", key)] = {"O_A": rep["O_A"], "O_AT": rep["O_AT"]}
        return self._cache[("groups", key)]

    def det_one_minus(self, key):
        if ("det", key) not in self._cache:
            a = self._matrices[key]
            rows = [[(i == j) - a.entry(i, j) for j in range(a.n)] for i in range(a.n)]
            self._cache[("det", key)] = self._zlinalg.determinant(
                self._zlinalg.IntMatrix.from_rows(rows))
        return self._cache[("det", key)]


def verify(ctx, passes, oracle, recorded) -> tuple:
    """Check every invocation of every pass.

    Returns (failed calls, problem messages, verdict digest per label).
    """
    seen = {}  # (invocation index, exit code, output sha256) -> (problems, digest)
    failed = 0
    problems = []
    digests = {}
    for p in passes:
        for rec in p["records"]:
            inv = ctx["calls"][rec["index"]][0]
            with open(rec["stem"] + ".out", "rb") as fh:
                raw = fh.read()
            rec["stdout_bytes"] = len(raw)
            key = (rec["index"], rec["rc"], hashlib.sha256(raw).hexdigest())
            if key not in seen:
                seen[key] = _verdict(inv, ctx["rows"][inv.matrix], rec, raw, oracle)
            msgs, digest = seen[key]
            if digest is not None:
                digests[inv.label] = digest
                if recorded is not None and recorded.get(inv.label) != digest:
                    msgs = msgs + ["verdict digest differs from the recorded one"]
            if msgs:
                failed += 1
                problems.extend(f"pass {p['index']}: {inv.label}: {msg}" for msg in msgs)
    return failed, problems, digests


def _verdict(inv, rows, rec, raw, oracle) -> tuple:
    """Problems with one invocation's output, and its verdict digest."""
    if rec["rc"] not in (0, 1):
        with open(rec["stem"] + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        return [f"exit {rec['rc']} {tail}"], None
    try:
        out = json.loads(raw)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], None
    try:
        return checks.check(inv, rows, rec["rc"], out, oracle), checks.verdict_digest(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output lacks an expected field: {exc!r}"], None


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import ckdual
    from ckdual import cli, sft

    if not os.path.abspath(ckdual.__file__).startswith(plan["src"] + os.sep):
        print(f"error: imported ckdual from {ckdual.__file__}", file=sys.stderr)
        return 2
    matrices = {key: sft.load_matrix(path) for key, path in plan["matrix_paths"].items()}
    print("ready", flush=True)
    if "--setup-only" in argv[2:]:
        return 0

    from ckdual import ktheory, zlinalg

    wl = workloads.build(plan["workload"], plan["seed"])
    ctx = {
        "cli": cli,
        "outdir": plan["workdir"],
        "rows": wl.matrices,
        "calls": [(inv, inv.argv(plan["matrix_paths"][inv.matrix])) for inv in wl.invocations],
    }
    passes = []
    rounds = 0
    t_start = clock()
    while True:
        passes += run_round(ctx, rounds, plan["trace"])
        rounds += 1
        # Stop once another round would probably overrun the measuring time.
        if (clock() - t_start) * (rounds + 1) / rounds > plan["seconds"]:
            break

    oracle = Oracle(matrices, ktheory, zlinalg)
    recorded = None
    if plan["seed"] == workloads.DEFAULT_SEED and not plan["record_digests"]:
        with open(plan["digests"], encoding="utf-8") as fh:
            recorded = json.load(fh)[plan["workload"]]
    failed, problems, found = verify(ctx, passes, oracle, recorded)
    if plan["record_digests"]:
        _record(plan["digests"], plan["workload"], found)

    layers, trace_problems = [], []
    for p in passes:
        if not p["traced"]:
            continue
        for rec in p["records"]:
            with open(rec["dump_path"], encoding="utf-8") as fh:
                rec["dump"] = json.load(fh)
        metrics = tracer.layer_metrics(p["records"])
        layers.append(metrics)
        trace_problems += tracer.accounting_problems(p["records"])
        trace_problems += tracer.self_check(plan["workload"], metrics)

    meta = []
    for i, inv in enumerate(wl.invocations):
        a = matrices[inv.matrix]
        meta.append({
            "label": inv.label,
            "n": a.n,
            "nnz": sum(map(sum, a.rows)),
            "basis": sum(sft.count_words(a, m) for m in range(inv.m_max + 1)) if inv.m_max else 0,
            "wall_s": [p["records"][i]["wall"] for p in passes if not p["traced"]],
            "rss_mib": max(p["records"][i]["rss_kib"] for p in passes) / 1024,
        })

    print(json.dumps({
        "passes": [{"traced": p["traced"], "wall": p["wall"],
                    "rss_mib": max(r["rss_kib"] for r in p["records"]) / 1024} for p in passes],
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": failed,
        "problems": problems,
        "layers": layers,
        "trace_problems": trace_problems,
        "invocations": meta,
    }), flush=True)
    return 0


def _record(path, workload, found) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            digests = json.load(fh)
    except FileNotFoundError:
        digests = {}
    digests[workload] = dict(sorted(found.items()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
