"""Pin the exact output of the Fock-space commands, not just their verdicts.

``fock-verify`` and ``pairing`` print every defect column with its exact
delta, so any change to the operator algebra (sharing columns between
operators, skipping the ``lhs - rhs`` construction, reusing adjoints) must
reproduce stdout byte for byte.  The digests below are the sha256 of the
stdout of each command, followed by its exit code, over ``--max-length`` 4..7,
recorded with the operator algebra that deep-copied every column in ``+``,
filled a fresh dict per column in ``@`` and checked each relation on
``lhs - rhs``.  A changed digest means some defect, delta, order or verdict
drifted.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from ckdual.cli import main
from helpers import CHORD3, FIB, MIXED4, ones, random_valid_matrix


def _random4():
    a = random_valid_matrix(random.Random(4404), 4)
    assert any(not a.entry(i, j) for i in range(4) for j in range(4))
    return a


MATRICES = {
    "FIB": lambda: FIB,
    "CHORD3": lambda: CHORD3,
    "MIXED4": lambda: MIXED4,
    "ones3": lambda: ones(3),
    "random4": _random4,
}

COMMANDS = {
    "fock-verify-all-json": ["fock-verify", "--relation", "all", "--json"],
    "fock-verify-iv-text": ["fock-verify", "--relation", "iv"],
    "pairing-json": ["pairing", "--json"],
}

PINNED = {
    ("CHORD3", "fock-verify-all-json"):
        "ca1c8898daac0697227f4ccc5d192479b825ac351dace7451ad65dbeab0d821e",
    ("CHORD3", "fock-verify-iv-text"):
        "e9e97e9b288f8c10aba133258b71142e12872075e1b5692d798e841b832c6dee",
    ("CHORD3", "pairing-json"):
        "449c3b91e75df2dd81f842f8d7e50533871f1e5e560695755a497c9308e2c390",
    ("FIB", "fock-verify-all-json"):
        "b5f4cca48c0566698ea8f282f40a90808e8e730e5eedbafb73c4e6d71f8e128f",
    ("FIB", "fock-verify-iv-text"):
        "e8bb7e5c1b39f5c21434d197e056d889ad5c8a28db0ba51ce0580a9aa5a5fafd",
    ("FIB", "pairing-json"):
        "bee9ad66265d43a38fbfdc57fd94d49c0a65d59bbd182e20d5b899c79333d491",
    ("MIXED4", "fock-verify-all-json"):
        "1b292a78e994138fe5b2db2aea97ec3d72bdeab242b4229e7742f098d813e7d3",
    ("MIXED4", "fock-verify-iv-text"):
        "7e6d32138c080705e102a42bddbe4aef6f30e736a9c6bb7b61f3c5fd005ae7fa",
    ("MIXED4", "pairing-json"):
        "8ef2e684cd61951b3037d7f7d0cc1417e8e5c04e76242a6f6c8c2cb03285c6c9",
    ("ones3", "fock-verify-all-json"):
        "256847c68009f6481b2e8a9a609ae13e98cb2067f6a6356b157c3376c66013a4",
    ("ones3", "fock-verify-iv-text"):
        "fb8949257d488dc6311763c5e0114f8b2c974210d7eb3efa33246e59bc85f270",
    ("ones3", "pairing-json"):
        "f1f731c68cd2e998c2affef4e8a365b57d36f3493d72f53792672073cf937c18",
    ("random4", "fock-verify-all-json"):
        "aa5a6d084f2273e9e5cead214af7a16f2056a1dfba0d89f13879d383c1dbf64d",
    ("random4", "fock-verify-iv-text"):
        "76b591c79f2a361af5f30a48c78979693d971e3ebcaa2565709104009796e436",
    ("random4", "pairing-json"):
        "3c9d85c73d9abfb6d739eb7c6068c9cbcbce255e1831b1813cc3535c7532c4c6",
}


def _digest(capsys, path, argv) -> str:
    h = hashlib.sha256()
    for m in range(4, 8):
        code = main([argv[0], "--matrix", path, *argv[1:], "--max-length", str(m)])
        h.update(capsys.readouterr().out.encode())
        h.update(f"exit {code}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,command", sorted(PINNED))
def test_fock_outputs_pinned(capsys, tmp_path, name, command):
    a = MATRICES[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(a.to_json()))
    assert _digest(capsys, str(path), COMMANDS[command]) == PINNED[name, command]
