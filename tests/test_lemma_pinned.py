"""Pin the exact output of ``lemma-verify``, not just its verdicts.

``lemma-verify`` prints every defect column of the W, V and Toeplitz suites
with its exact symbolic entries, so any change to the hybrid layer (how the
defect scan walks the operators, which lemma operators are shared, how the
valid domain is derived) must reproduce stdout byte for byte.  The digests
below are the sha256 of the stdout of each command, followed by its exit code,
over ``--max-length`` 4..6, recorded with the defect scan that built
``x - y`` as a hybrid element and probed every term at every touched column.
A changed digest means some defect, entry, order or verdict drifted.
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
    f"{which}-{form}": ["lemma-verify", "--which", which, *flags]
    for which in ("W", "V", "toeplitz")
    for form, flags in (("text", []), ("json", ["--json"]))
}

PINNED = {
    ("CHORD3", "V-json"):
        "5e6ab05fe361060dc26a57f7989a77e805bbca87a95472a69f89bf391668409a",
    ("CHORD3", "V-text"):
        "c764ae902dbc0172bbb0a5e2240672e23dfa3daa3851586b23ac74da4c42066e",
    ("CHORD3", "W-json"):
        "f6c84a0e5d62cbcb8df5114f6108bb1037ed5bbbdccea92258111dfe20f45cc6",
    ("CHORD3", "W-text"):
        "e248f31229d3b434d334ece39412cd13d387639d8435e9d8d46fcc3895005b00",
    ("CHORD3", "toeplitz-json"):
        "c19dc9681e91f820961d8f08c8d89679865424d6f97d878cecbf2a52a435f721",
    ("CHORD3", "toeplitz-text"):
        "c462d9f264ac49ea845f30df9d2def54109b73f8d69e1896bb733b9666d39563",
    ("FIB", "V-json"):
        "a8a3165e95f1b8ed53abce047e4ae19c6ee936e2d91651bdf159b39331969691",
    ("FIB", "V-text"):
        "3c8e2d42f01691059875bb82eabc7526357b34d4329a0df87955167e9825cb21",
    ("FIB", "W-json"):
        "03967d5e80dd0ff808c62d7d36b60dd79b7e9cfc5df7f604ddffd8e6af794ccb",
    ("FIB", "W-text"):
        "995bcb15d461ba421ae46eec177f0e276c81821d4afa69a5d43b72434a8d6bcf",
    ("FIB", "toeplitz-json"):
        "fd4aceb073db9dbe7568bf5e6f539d82501daf0c8f08cfa1c886d2c141e0fb48",
    ("FIB", "toeplitz-text"):
        "42992454e5ae76a0464bffdc39cedd1acd9703c316d72b4fd0134e7616161787",
    ("MIXED4", "V-json"):
        "163ae6d3bb12bc44f375753c6823d7ce17532d3755f095a10f3a4cd54212427c",
    ("MIXED4", "V-text"):
        "df63d39d8c6c3ae6ac9e6329bf313b98981987b6ec85581425d17d1765c01103",
    ("MIXED4", "W-json"):
        "8514ab4307ff9844bf713a2fde6973b22352accd1bb0aa10e3768f5f9e84aa11",
    ("MIXED4", "W-text"):
        "5746cbbe572b2a25ef79428fa1494c8fcdc15e6c076eefb4a310028637e02c62",
    ("MIXED4", "toeplitz-json"):
        "60efb1c3527917167c303cfa55ed106942e86dc562c44b7afe5b624e156e999b",
    ("MIXED4", "toeplitz-text"):
        "e9f88c04b6c167a5c9ba2e74de5de478689937b7c2c312abc82cbae2e8bd4d5f",
    ("ones3", "V-json"):
        "ca33e43b9ce1766fdfd8bbfe7ffdc87969c03b32dc0f4b948773f71df0858214",
    ("ones3", "V-text"):
        "c764ae902dbc0172bbb0a5e2240672e23dfa3daa3851586b23ac74da4c42066e",
    ("ones3", "W-json"):
        "567af00894e9422fddfb19a7a92973e511d752efd7298bc7d8000bf38fcaf3fa",
    ("ones3", "W-text"):
        "dc1afe05cdab2701c43df8f4f37f0718881d0cc12d7056b6973484c52d847456",
    ("ones3", "toeplitz-json"):
        "8aa4207a9128ee16798108931ca85701664537cc47527338a68a424b1fbe2b84",
    ("ones3", "toeplitz-text"):
        "c462d9f264ac49ea845f30df9d2def54109b73f8d69e1896bb733b9666d39563",
    ("random4", "V-json"):
        "c8b2b311f3a1d21b9a351bf43f157ba9697e4ce54f1ce18a9189d12adb6925ef",
    ("random4", "V-text"):
        "df63d39d8c6c3ae6ac9e6329bf313b98981987b6ec85581425d17d1765c01103",
    ("random4", "W-json"):
        "28e9d7eb837346ddcda09fa6cabc01b7707f858fdb3c6e35e090be60b6441fcf",
    ("random4", "W-text"):
        "8b21854c29550b6b6337ab7a92a13fd67749c7f6a41451409dc5ca82cabce7e9",
    ("random4", "toeplitz-json"):
        "b848f15b23ad5377b33e636189638dafb086049311bb449fb384fd0f147dfee7",
    ("random4", "toeplitz-text"):
        "e9f88c04b6c167a5c9ba2e74de5de478689937b7c2c312abc82cbae2e8bd4d5f",
}


def _digest(capsys, path, argv) -> str:
    h = hashlib.sha256()
    for m in range(4, 7):
        code = main([argv[0], "--matrix", path, *argv[1:], "--max-length", str(m)])
        h.update(capsys.readouterr().out.encode())
        h.update(f"exit {code}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,command", sorted(PINNED))
def test_lemma_outputs_pinned(capsys, tmp_path, name, command):
    a = MATRICES[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(a.to_json()))
    assert _digest(capsys, str(path), COMMANDS[command]) == PINNED[name, command]
