"""Verdict checks: what the paper predicts for every invocation's output.

``check(inv, rows, rc, out, oracle)`` returns a list of problems (empty when
the verdict is the predicted one).  ``oracle`` supplies the few facts that
need the program's own arithmetic on a different input: the groups of a base
matrix (for conjugacy invariance) and a Bareiss determinant (an algorithm
independent of the Smith form).
"""

from __future__ import annotations

import hashlib
import json

from workloads import BASE_K0


def verdict_digest(out: dict) -> str:
    """sha256 of the JSON verdict fields (everything but the echoed matrix)."""
    fields = {k: v for k, v in out.items() if k != "matrix"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def _has_zero(rows) -> bool:
    return any(0 in r for r in rows)


def _order(group: dict) -> int:
    o = 1
    for d in group["torsion"]:
        o *= d
    return o


def _check_ktheory(inv, rows, rc, out, oracle) -> list:
    problems = []
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    oa, oat, dual = out["O_A"], out["O_AT"], out["duality"]
    # Shared presentations: K_0(O_A) and K^1(O_AT) are both coker(1 - A^T), etc.
    for left, right in (("K0", "K^1"), ("K1", "K^0"), ("K^0", "K1"), ("K^1", "K0")):
        if oa[left] != oat[right]:
            problems.append(f"O_A {left} != O_AT {right}")
    if not (dual["presentation_match_K0_Khom1"] and dual["presentation_match_K1_Khom0"]
            and dual["abstract_iso_cokernels"]):
        problems.append("duality flags not all true")
    if dual["invariant_factors_A"] != dual["invariant_factors_AT"]:
        problems.append("coker(1-A) and coker(1-A^T) have different invariant factors")
    if oa["K0"]["torsion"] != dual["invariant_factors_AT"]:
        problems.append("K0(O_A) torsion differs from the invariant factors of coker(1-A^T)")
    if oa["K1"]["free_rank"] != oa["K0"]["free_rank"]:
        problems.append("rank ker(1-A^T) != free rank of coker(1-A^T)")
    if inv.base:
        # Conjugacy invariance: A^[N] has the groups of its base A.
        base = oracle.base_groups(inv.base)
        if {"O_A": oa, "O_AT": oat} != base:
            problems.append(f"groups differ from those of the base {inv.base}")
        if base["O_A"]["K0"] != BASE_K0[inv.base]:
            problems.append(f"base {inv.base} K0 differs from the reference value")
    else:
        det = oracle.det_one_minus(inv.matrix)
        for name, group in (("K^1(O_A) = coker(1-A)", oa["K^1"]),
                            ("K0(O_A) = coker(1-A^T)", oa["K0"])):
            if det != 0 and (group["free_rank"] != 0 or _order(group) != abs(det)):
                problems.append(f"{name} should be finite of order |det(1-A)| = {abs(det)}")
            if det == 0 and group["free_rank"] < 1:
                problems.append(f"{name} should have free rank >= 1 since det(1-A) = 0")
    return problems


def _check_fock_verify(inv, rows, rc, out, oracle) -> list:
    n = len(rows)
    problems = []
    want_rc = 1 if _has_zero(rows) else 0
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")
    reports = {r["relation"]: r for r in out["reports"]}
    expected = [f"i(k={k})" for k in range(1, n + 1)]
    expected += [f"ii(k={k})" for k in range(1, n + 1)]
    expected += [f"{f}(k={k},l={l})" for f in ("iii", "iv")
                 for k in range(1, n + 1) for l in range(1, n + 1)]
    if sorted(reports) != sorted(expected):
        return problems + ["relation labels differ from i, ii, iii, iv over all k, l"]
    for label in expected:
        r = reports[label]
        if not label.startswith("iv"):
            if not r["holds"] or r["defects"]:
                problems.append(f"{label} should hold")
            continue
        k, l = (int(part.split("=")[1]) for part in label[3:-1].split(","))
        if rows[k - 1][l - 1]:
            if not r["holds"] or r["defects"]:
                problems.append(f"{label} should hold since A_kl = 1")
        elif r["holds"] or r["defects"] != [{"column": str(k), "delta": {str(l): -1}}]:
            # The rank-one defect (A_kl - 1)|xi_l><xi_k|.
            problems.append(f"{label} should fail on column {k} with row {l} at -1")
    return problems


def _check_pairing(inv, rows, rc, out, oracle) -> list:
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}, expected 0")
    if not out["holds"] or out["vacuum_eigenvalue"] != len(rows):
        problems.append("rotation index report does not hold")
    if not out["sectors"]:
        problems.append("no sector was checked")
    if any(s["index"] != 0 for s in out["sectors"]):
        problems.append("a sector has nonzero index")
    return problems


def _check_lemma(inv, rows, rc, out, oracle) -> list:
    problems = []
    items = out["items"]
    if inv.which == "W":
        want_rc = 1 if _has_zero(rows) else 0
        for item in items:
            if item["id"].startswith("vi(k="):
                k = int(item["id"][5:-1])
                want = 0 not in rows[k - 1]
                if item["holds"] != want:
                    problems.append(f"W {item['id']} holds={item['holds']}, expected {want}")
            elif not item["holds"]:
                problems.append(f"W {item['id']} should hold")
        if sum(item["id"].startswith("vi(k=") for item in items) != len(rows):
            problems.append("W report lacks an item vi(k) per letter")
    else:
        want_rc = 0
        problems += [f"{inv.which} {item['id']} should hold" for item in items if not item["holds"]]
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")
    return problems


_CHECKS = {
    "ktheory": _check_ktheory,
    "fock-verify": _check_fock_verify,
    "pairing": _check_pairing,
    "lemma-verify": _check_lemma,
}


def check(inv, rows, rc, out, oracle) -> list:
    return _CHECKS[inv.command](inv, rows, rc, out, oracle)
