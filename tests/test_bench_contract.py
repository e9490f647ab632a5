"""The benchmark's tracer must still find every entry point it wraps.

``bench/tracer.py`` wraps ckdual functions by name and reads the zero-test
cache statistics.  A rename in ckdual would make ``--trace 1`` fail only when
the benchmark runs, so this test runs the traced hybrid-lemmas calls the way
``bench/worker.py`` does and applies the tracer's own self-check.  It runs in
a subprocess so that the wrappers never reach this test process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, os, sys
bench, src, matrix, tmp = sys.argv[1:]
sys.path[:0] = [bench, src]
from ckdual import cli
import tracer, worker

records = []
for which in ("W", "V", "toeplitz"):
    argv = ["lemma-verify", "--matrix", matrix, "--which", which, "--max-length", "4", "--json"]
    rec = worker._invoke({"cli": cli}, os.path.join(tmp, which), argv, True)
    if rec["rc"] not in (0, 1):
        with open(rec["stem"] + ".err", encoding="utf-8") as fh:
            sys.exit(f"lemma-verify {which} exited {rec['rc']}: {fh.read()}")
    with open(rec["stem"] + ".out", "rb") as fh:
        rec["stdout_bytes"] = len(fh.read())
    with open(rec["dump_path"], encoding="utf-8") as fh:
        rec["dump"] = json.load(fh)
    rec["label"] = which
    records.append(rec)
print(json.dumps(tracer.self_check("hybrid-lemmas", tracer.layer_metrics(records))))
"""


def test_tracer_self_check_on_hybrid_lemmas(tmp_path):
    matrix = tmp_path / "fib.json"
    matrix.write_text('{"n": 2, "rows": [[1, 1], [1, 0]]}')
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(matrix), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
