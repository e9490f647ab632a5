"""Pin the exact output of the K-theory commands, not just their groups.

``ktheory`` and ``duality`` print every group of O_A and O_{A^T} and the
invariant factors of both cokernels, so any change to how the Smith forms
behind them are computed or shared, or to how the JSON is written, must
reproduce stdout, stderr and the exit code byte for byte.  The digests below
are the sha256 of stdout, stderr and exit code of each command, recorded with
the implementation that ran a fresh Smith form for every cokernel and kernel
request (ten per ``ktheory --duality`` call) and wrote JSON with
``print(json.dumps(obj, indent=2))``.  A changed digest means some group,
invariant factor, key order or layout drifted.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from ckdual.cli import main
from helpers import FIB, MIXED4, higher_block, ones, random_valid_matrix

MATRICES = {
    "FIB^[6]": lambda: higher_block(FIB, 6),
    "MIXED4^[3]": lambda: higher_block(MIXED4, 3),
    "ones3^[3]": lambda: higher_block(ones(3), 3),
    # the matrix of the dense32 Smith-form pin in test_snf_pinned.py
    "dense32": lambda: random_valid_matrix(random.Random(3232), 32),
}

COMMANDS = {
    "ktheory-json": ["ktheory", "--json"],
    "ktheory-duality-json": ["ktheory", "--duality", "--json"],
    "ktheory-duality-text": ["ktheory", "--duality"],
    "duality-text": ["duality"],
    "duality-json": ["duality", "--json"],
}

PINNED = {
    ("FIB^[6]", "duality-json"):
        "f10ac2315b524ffc4bb4cc13c09df379cf1d595b158b366c7dee376e85da6a0e",
    ("FIB^[6]", "duality-text"):
        "1e341d01917ab646d50971664d1872fa82c73b4753219a9573aedaee552e8d77",
    ("FIB^[6]", "ktheory-duality-json"):
        "99fa40a4f3b3da94ae5afc48a9cc5af906a92bf1f2300c1165ce7ae7eee8efcc",
    ("FIB^[6]", "ktheory-duality-text"):
        "da226ad8ff2dd404e9f4cfdc2df3de4989e1953d0a5a08ab47de38f661245d0c",
    ("FIB^[6]", "ktheory-json"):
        "d4157ff746d1228d4032839e49bbd0ade0d51e9aac577f25c5e483b291410f00",
    ("MIXED4^[3]", "duality-json"):
        "4554a24de3caae72e97cdb5c05b115a7643089bc50d22298f876bfb0687d1cce",
    ("MIXED4^[3]", "duality-text"):
        "68b7736f076659c988ffaeaebd98eb55d1a6d213054682fef744a4532a3ab77c",
    ("MIXED4^[3]", "ktheory-duality-json"):
        "1a8750e9c397bb62446e242b3bf0137f6edbbbbe7fbfd8ac2ff51708c7481bce",
    ("MIXED4^[3]", "ktheory-duality-text"):
        "cc90355d2e6f29ab45ce4656d41b4c7742016cee48b58c85737325c3d9e5ade8",
    ("MIXED4^[3]", "ktheory-json"):
        "1ed25ba66989ee31a3546ddd9e875780301a0c16c84035aa3e2b926a1057aab3",
    ("dense32", "duality-json"):
        "38740a32e27c4f3b6c5a92ea3a9363c58c55b6ec6d061cd10279362543e128ca",
    ("dense32", "duality-text"):
        "79bc9b9ab1b5840300b6b55b0fcfca5a9a2612f49c3c1266f9d5a671345d0f8b",
    ("dense32", "ktheory-duality-json"):
        "183e94ee4da73b17e0e3391384257898766247fd3cf9568ca9912c6ebe6720f7",
    ("dense32", "ktheory-duality-text"):
        "bb1ca88c87fa10391d58d774362901b553565d037f856266f3a237fd052603bb",
    ("dense32", "ktheory-json"):
        "84a8baeaebca15f4b0d84ab28ac3d8a92a603dd407c32cea28946dbbbcbc2a8c",
    ("ones3^[3]", "duality-json"):
        "8d1fd9c62db58e374e512dfd87f1938d25fa446dc77344a5791e3de7af4d6af2",
    ("ones3^[3]", "duality-text"):
        "68b7736f076659c988ffaeaebd98eb55d1a6d213054682fef744a4532a3ab77c",
    ("ones3^[3]", "ktheory-duality-json"):
        "ec94463954746ffa31856ec3451d2410870589409a0871ad81e280257d148464",
    ("ones3^[3]", "ktheory-duality-text"):
        "cc90355d2e6f29ab45ce4656d41b4c7742016cee48b58c85737325c3d9e5ade8",
    ("ones3^[3]", "ktheory-json"):
        "7dfc324ae3afc28dcfa83de5a27d166867c8ade1a5c4952c04d61152c36afd8c",
}


def _digest(capsys, path, argv) -> str:
    code = main([argv[0], "--matrix", path, *argv[1:]])
    out, err = capsys.readouterr()
    h = hashlib.sha256()
    h.update(out.encode())
    h.update(f"stderr {err}".encode())
    h.update(f"exit {code}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,command", sorted(PINNED))
def test_ktheory_outputs_pinned(capsys, tmp_path, name, command):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(MATRICES[name]().to_json()))
    assert _digest(capsys, str(path), COMMANDS[command]) == PINNED[name, command]
