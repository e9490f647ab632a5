"""Seeded input generation for the four benchmark workloads.

Everything the CLI is given comes from here: fixed matrix families from the
test suite, their higher-block presentations A^[N], seeded random valid 0/1
matrices, and a seeded relabelling of the alphabet.  Nothing in this module
imports ckdual; the generated matrices reach the program only as files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

FIB = ((1, 1), (1, 0))
CHORD3 = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
RING4 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
MIXED4 = ((1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0))


def ones(n: int) -> tuple:
    return tuple((1,) * n for _ in range(n))


# K_0(O_A) = coker(1 - A^T) of the base matrices: 0 for the golden-mean shift
# (det(1 - A) = -1), Z/(n-1) = Z/2 for the full 3-shift (Cuntz), and Z/2 for
# MIXED4.  Every higher-block presentation of a base must report the same group.
BASE_K0 = {
    "FIB": {"free_rank": 0, "torsion": []},
    "ones3": {"free_rank": 0, "torsion": [2]},
    "MIXED4": {"free_rank": 0, "torsion": [2]},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``ckdual <command> --matrix <file> <extra> --json``."""

    label: str
    command: str
    matrix: str  # key into Workload.matrices
    extra: tuple = ()
    m_max: int = 0  # Fock truncation for fock-verify / pairing / lemma-verify
    which: str = ""  # lemma selector for lemma-verify
    base: str = ""  # ktheory-sparse: key of the base matrix, in Workload.matrices and BASE_K0

    def argv(self, matrix_path: str) -> list:
        return [self.command, "--matrix", matrix_path, *self.extra, "--json"]


@dataclass
class Workload:
    matrices: dict = field(default_factory=dict)  # key -> rows (tuple of tuples)
    invocations: list = field(default_factory=list)

    def write_matrices(self, directory: str) -> dict:
        """Write each matrix as a JSON matrix file; return key -> path."""
        paths = {}
        for key, rows in self.matrices.items():
            path = os.path.join(directory, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": len(rows), "rows": [list(r) for r in rows]}, fh)
            paths[key] = path
        return paths


# ---------------------------------------------------------------------------
# generators


def relabel(rows, perm) -> tuple:
    """P A P^T: letter i becomes perm[i] (a conjugacy of the shift)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return tuple(tuple(r) for r in out)


def admissible_words(rows, length: int) -> list:
    """All admissible words of the given length >= 1, lexicographic."""
    n = len(rows)
    words = [(i,) for i in range(n)]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in range(n) if rows[w[-1]][j]]
    return words


def higher_block(rows, block: int) -> tuple:
    """The higher-block presentation A^[N]: vertices are the admissible
    N-words, with an edge u -> v iff u[1:] == v[:-1]."""
    words = admissible_words(rows, block)
    by_prefix = {}
    for j, v in enumerate(words):
        by_prefix.setdefault(v[:-1], []).append(j)
    out = []
    for u in words:
        row = [0] * len(words)
        for j in by_prefix.get(u[1:], ()):
            row[j] = 1
        out.append(tuple(row))
    return tuple(out)


def random_valid(rng: random.Random, n: int, density: float = 0.45) -> tuple:
    """A random n x n 0/1 matrix with zero rows and columns repaired."""
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(r[j] for r in rows):
            rows[rng.randrange(n)][j] = 1
    return tuple(tuple(r) for r in rows)


def _shuffled(rng: random.Random, rows) -> tuple:
    return relabel(rows, rng.sample(range(len(rows)), len(rows)))


# ---------------------------------------------------------------------------
# workloads


def ktheory_sparse(seed: int) -> Workload:
    """``ktheory --duality`` on higher-block presentations of relabelled bases."""
    rng = random.Random(f"ktheory-sparse/{seed}")
    wl = Workload()
    plan = (("MIXED4", MIXED4, range(2, 6)), ("FIB", FIB, range(6, 11)), ("ones3", ones(3), (3, 4)))
    for name, rows, blocks in plan:
        base = _shuffled(rng, rows)
        wl.matrices[name] = base
        for block in blocks:
            key = f"{name}_b{block}"
            wl.matrices[key] = higher_block(base, block)
            wl.invocations.append(
                Invocation(f"ktheory {name}^[{block}]", "ktheory", key, ("--duality",), base=name)
            )
    return wl


def ktheory_dense(seed: int) -> Workload:
    """``ktheory --duality`` on seeded random valid matrices, density 0.45."""
    rng = random.Random(f"ktheory-dense/{seed}")
    wl = Workload()
    for n in (24, 32, 40, 48, 56, 64):
        key = f"rand{n}"
        wl.matrices[key] = random_valid(rng, n)
        wl.invocations.append(Invocation(f"ktheory {key}", "ktheory", key, ("--duality",)))
    return wl


def fock_relations(seed: int) -> Workload:
    """``fock-verify --relation all`` and ``pairing`` on 2..4-letter shifts."""
    rng = random.Random(f"fock-relations/{seed}")
    wl = Workload()
    wl.matrices["ones4"] = ones(4)
    wl.matrices["MIXED4"] = _shuffled(rng, MIXED4)
    wl.matrices["RING4"] = _shuffled(rng, RING4)
    wl.matrices["FIB"] = _shuffled(rng, FIB)
    wl.matrices["rand4"] = random_valid(rng, 4)
    plan = (("ones4", 7), ("ones4", 8), ("MIXED4", 8), ("MIXED4", 9), ("RING4", 9),
            ("FIB", 9), ("rand4", 8))
    for key, m in plan:
        wl.invocations.append(
            Invocation(f"fock-verify {key} m={m}", "fock-verify", key,
                       ("--relation", "all", "--max-length", str(m)), m_max=m)
        )
        wl.invocations.append(
            Invocation(f"pairing {key} m={m}", "pairing", key, ("--max-length", str(m)), m_max=m)
        )
    return wl


def hybrid_lemmas(seed: int) -> Workload:
    """``lemma-verify --which W|V|toeplitz`` on small shifts."""
    rng = random.Random(f"hybrid-lemmas/{seed}")
    wl = Workload()
    wl.matrices["FIB"] = _shuffled(rng, FIB)
    wl.matrices["CHORD3"] = _shuffled(rng, CHORD3)
    wl.matrices["ones3"] = ones(3)
    wl.matrices["MIXED4"] = _shuffled(rng, MIXED4)
    wl.matrices["ones4"] = ones(4)
    plan = (("FIB", 7), ("CHORD3", 6), ("ones3", 7), ("MIXED4", 7), ("ones4", 6))
    for key, m in plan:
        for which in ("W", "V", "toeplitz"):
            wl.invocations.append(
                Invocation(f"lemma-verify {which} {key} m={m}", "lemma-verify", key,
                           ("--which", which, "--max-length", str(m)), m_max=m, which=which)
            )
    return wl


WORKLOADS = {
    "ktheory-sparse": ktheory_sparse,
    "ktheory-dense": ktheory_dense,
    "fock-relations": fock_relations,
    "hybrid-lemmas": hybrid_lemmas,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
