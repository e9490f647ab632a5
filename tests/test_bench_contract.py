"""The benchmark's tracer must still find every entry point it wraps.

``bench/tracer.py`` wraps ckdual functions by name and reads the zero-test
cache statistics.  A rename in ckdual would make ``--trace 1`` fail only when
the benchmark runs, so this test runs traced calls of each command family the
way ``bench/worker.py`` does and applies the tracer's own self-check for the
workload that family belongs to, including its fixed per-call counts.  It runs
in a subprocess so that the wrappers never reach this test process.

For the two Fock families it also pins how many adjoints and products the
traced calls make and how many nonzero entries the products hold, so that
rebuilding an adjoint or a range projection, or changing a product matrix,
fails here rather than only showing up in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, os, sys
bench, src, workload, calls, tmp = sys.argv[1:]
sys.path[:0] = [bench, src]
from ckdual import cli
import tracer, worker

records = []
for i, argv in enumerate(json.loads(calls)):
    rec = worker._invoke({"cli": cli}, os.path.join(tmp, str(i)), argv, True)
    if rec["rc"] not in (0, 1):
        with open(rec["stem"] + ".err", encoding="utf-8") as fh:
            sys.exit(f"{argv} exited {rec['rc']}: {fh.read()}")
    with open(rec["stem"] + ".out", "rb") as fh:
        rec["stdout_bytes"] = len(fh.read())
    with open(rec["dump_path"], encoding="utf-8") as fh:
        rec["dump"] = json.load(fh)
    rec["label"] = " ".join(argv[:1] + argv[3:])
    records.append(rec)
metrics = tracer.layer_metrics(records)
print(json.dumps({"problems": tracer.self_check(workload, metrics), "metrics": metrics}))
"""

M = ["--max-length", "4", "--json"]

# workload -> the calls of its command family, with MATRIX for the matrix file
FAMILIES = {
    "fock-relations": [
        ["fock-verify", "--matrix", "MATRIX", "--relation", "all", *M],
        ["pairing", "--matrix", "MATRIX", *M],
    ],
    "ktheory-sparse": [["ktheory", "--matrix", "MATRIX", "--duality", "--json"]],
    "hybrid-lemmas": [
        ["lemma-verify", "--matrix", "MATRIX", "--which", which, *M]
        for which in ("W", "V", "toeplitz")
    ],
}

# workload -> exact traced counts for FIB at --max-length 4.  fock-verify
# builds L_1*, L_2*, R_1*, R_2* once (4 adjoints) and makes 24 products: the
# range projections L_i L_i*, R_i R_i* (4), the left sides L_k* L_k, R_k* R_k
# (4) and two per commutator in iii and iv (16).  pairing adds L_k* and
# L_k* R_k for each k (2 adjoints, 2 products).  ``fock.matmul_nnz`` sums the
# nonzero entries of every product, so a change of storage that alters any
# product matrix, or adds a product, fails here too.  Each family's products
# stop at its checked domain, the words of length <= 3 for i, ii and iv and
# <= 2 for iii, so per family:
#   i   28: the ranges L_1 L_1*, L_2 L_2* on the words of length <= 3 that
#           begin with 1 (6) and with 2 (4), and L_k* L_k on the 11 and 7
#           sources of L_1 and L_2;
#   ii  28: the same on the right;
#   iii 32: L_k R_l and R_l L_k, 6, 4, 4 and 2 each for (k, l) = (1, 1),
#           (1, 2), (2, 1), (2, 2);
#   iv  35: L_k* R_l 7 + 4 + 4 + 3 and R_l L_k* 6 + 4 + 4 + 3;
#   pairing 10: L_1* R_1 7 and L_2* R_2 3.
#
# lemma-verify makes one Fock product per pair of terms in each hybrid
# product whose symbolic product is not structurally zero; a pair with
# s_i* s_j (i != j) or s_i s_j (A[i][j] = 0, on FIB only s_2 s_2) in its
# symbolic factor builds none.  On FIB, W and W* have two terms
# (R_i (x) s_i*), L_k (x) 1 and P (x) 1 one, V_k = W* (L_k (x) 1) two
# (R_i* L_k (x) s_i), and W*W two (R_i* R_j = 0 for i != j).  W: 2 adjoints
# (W*, whose R_j* the W*W expansion reuses) and 26 products: W*W 4, the
# expansion's R_j R_j* 2, WW* 2 (only i = j, as s_i* s_j = 0 otherwise),
# P W 2, and [W, L_k], [W*, L_k] 4 each per k (16).  V: 6 adjoints (W*,
# then V_k* for each k) and 44 products: V_k 2 per k (4), the ranges
# V_k V_k* 4 per k (8), W*W 4, V_k* V_k 2 per k (4, only i = j), [W, V_k]
# 2 + 4 per k (12: W V_k keeps only i = j) and [W*, V_k] 3 + 3 per k (12:
# W* V_k and V_k W* lose the pair with s_2 s_2).  toeplitz: the same 6
# adjoints and 28 products: V_k 4, ranges 8, W*W 4, W*W V_k 2 per k (4,
# as s_i s_i* s_j = 0 for i != j), V_k* V_k 4, WW* 2 and (W*W)^2 2.  Their
# nonzero entries add up to 134 + 151 + 126.
#
# ``ckalg.is_zero_calls`` counts one zero test per distinct entry per defect
# scan, not one per cell: the 20 scans (7 in W, 7 in V, 6 in toeplitz) hold
# 13 + 22 + 16 distinct entries, and the 3 ``tensor_equal`` calls of the
# quotient items (W i, V i(k=1), V i(k=2)) test one difference each.  A scan
# that zero-tests every cell makes 123.
#
# ``ckalg.multiply_calls`` counts 122 symbolic products of pairs of terms
# (26 in W, 56 in V, 40 in toeplitz), 37 products of quotient images, one
# per ``hybrid_mul`` (11 in W, 15 in V, 11 in toeplitz), whatever the number
# of terms, and the 2 products alpha_z* (s_k (x) 1 (x) 1) of V i(k).
# ``duality.prov_out`` counts the terms of the 37 product images:
# 22 + 46 + 43 = 111.  Images kept as one entry per term as written, with
# one multiply per pair of entries, make 122 image multiplies and keep 76
# nonzero entries (246 multiplies in all), so both pins fail there.
EXACT_COUNTS = {
    "fock-relations": {"fock.adjoint_calls": 6, "fock.matmul_calls": 26,
                       "fock.matmul_nnz": 133},
    "hybrid-lemmas": {"fock.adjoint_calls": 14, "fock.matmul_calls": 98,
                      "fock.matmul_nnz": 411, "ckalg.is_zero_calls": 54,
                      "ckalg.multiply_calls": 161, "duality.prov_out": 111},
}


@pytest.mark.parametrize("workload", sorted(FAMILIES))
def test_tracer_self_check(tmp_path, workload):
    matrix = tmp_path / "fib.json"
    matrix.write_text('{"n": 2, "rows": [[1, 1], [1, 0]]}')
    calls = [[str(matrix) if a == "MATRIX" else a for a in argv] for argv in FAMILIES[workload]]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         workload, json.dumps(calls), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == []
    for metric, count in EXACT_COUNTS.get(workload, {}).items():
        assert out["metrics"][metric] == count, metric
