import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdual import cli, fock, sft
from ckdual.cli import main
from helpers import MIXED4, higher_block

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fib_file(tmp_path):
    p = tmp_path / "fib.json"
    p.write_text('{"n": 2, "rows": [[1, 1], [1, 0]]}')
    return str(p)


@pytest.fixture
def o2_file(tmp_path):
    p = tmp_path / "o2.txt"
    p.write_text("1 1\n1 1\n")
    return str(p)


@pytest.fixture
def swap_file(tmp_path):
    p = tmp_path / "swap.json"
    p.write_text('{"n": 2, "rows": [[0, 1], [1, 0]]}')
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_fibonacci(capsys, fib_file):
    code, out, _err = run(capsys, "validate", "--matrix", fib_file)
    assert code == 0
    assert "valid: true" in out
    assert "aperiodic: true" in out
    assert "cantor: true" in out


def test_validate_swap_warns_but_exits_zero(capsys, swap_file):
    code, out, err = run(capsys, "validate", "--matrix", swap_file)
    assert code == 0
    assert "cantor: false" in out
    assert "warning" in err


def test_validate_malformed_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "rows": [[1, 1], [1, 0]]} extra')
    code, _out, err = run(capsys, "validate", "--matrix", str(p))
    assert code == 2
    assert "error:" in err
    p2 = tmp_path / "zero.txt"
    p2.write_text("1 1\n0 0\n")
    code, _out, err = run(capsys, "validate", "--matrix", str(p2))
    assert code == 2
    assert "row 2" in err


def test_missing_file_exits_2(capsys):
    code, _out, err = run(capsys, "validate", "--matrix", "/nonexistent/m.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("latin1.txt", b"1 1\n1 \xe9\n", "not UTF-8"),
        ("deep.json", b'{"n": 1, "rows": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
         "nested too deeply"),
    ],
    ids=["not-utf8", "deep-json"],
)
def test_unreadable_matrix_file_exits_2(capsys, tmp_path, name, content, message):
    p = tmp_path / name
    p.write_bytes(content)
    code, out, err = run(capsys, "validate", "--matrix", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_unexpected_exception_exits_3(capsys, monkeypatch, fib_file):
    def broken(_args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "cmd_fock_verify", broken)
    code, out, err = run(capsys, "fock-verify", "--matrix", fib_file)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert "RuntimeError: simulated fault" in err

def test_words(capsys, fib_file):
    code, out, _err = run(capsys, "words", "--matrix", fib_file, "--length", "2")
    assert code == 0
    assert out.splitlines() == ["11", "12", "21"]
    code, out, _err = run(capsys, "words", "--matrix", fib_file, "--length", "0")
    assert out.splitlines() == ["ε"]


def test_ktheory_o2_trivial(capsys, o2_file):
    code, out, _err = run(capsys, "ktheory", "--matrix", o2_file)
    assert code == 0
    assert "K0(O_A)  = 0" in out
    assert "K1(O_A)  = 0" in out


def test_ktheory_o3_json(capsys, tmp_path):
    p = tmp_path / "o3.txt"
    p.write_text("1 1 1\n1 1 1\n1 1 1\n")
    code, out, _err = run(capsys, "ktheory", "--matrix", str(p), "--json", "--duality")
    assert code == 0
    obj = json.loads(out)
    assert obj["O_A"]["K0"] == {"free_rank": 0, "torsion": [2]}
    assert obj["O_A"]["K1"] == {"free_rank": 0, "torsion": []}
    assert obj["duality"]["presentation_match_K0_Khom1"] is True


def test_removed_duality_command_is_a_usage_error(capsys, fib_file):
    # the duality report is the --duality block of ktheory
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--matrix", fib_file])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'duality'" in err
    assert "Traceback" not in err


def test_fock_verify_exits(capsys, o2_file, fib_file):
    code, out, _err = run(capsys, "fock-verify", "--matrix", o2_file)
    assert code == 0
    assert "DEFECT" not in out
    code, out, _err = run(capsys, "fock-verify", "--matrix", fib_file)
    assert code == 1
    assert "iv(k=2,l=2): DEFECT" in out
    code, out, _err = run(capsys, "fock-verify", "--matrix", fib_file, "--relation", "i")
    assert code == 0
    assert all(line.startswith("i(") for line in out.splitlines())


def test_lemma_verify_exits(capsys, o2_file, fib_file):
    for which in ("W", "V", "toeplitz"):
        code, _out, _err = run(capsys, "lemma-verify", "--matrix", o2_file, "--which", which)
        assert code == 0
    code, out, _err = run(capsys, "lemma-verify", "--matrix", fib_file, "--which", "W")
    assert code == 1
    assert "vi(k=2): DEFECT" in out
    code, _out, _err = run(capsys, "lemma-verify", "--matrix", fib_file, "--which", "V")
    assert code == 0


def test_pairing(capsys, fib_file, o2_file):
    code, out, _err = run(capsys, "pairing", "--matrix", fib_file)
    assert code == 0
    assert "X Ω = 2 Ω" in out
    assert "sector 1: dim=2 ker=1 coker=1 index=0" in out
    code, out, _err = run(capsys, "pairing", "--matrix", o2_file, "--json")
    obj = json.loads(out)
    assert obj["holds"] is True
    assert all(s["dim_ker"] == 0 and s["dim_coker"] == 0 for s in obj["sectors"])


def test_json_outputs_roundtrip_and_deterministic(capsys, fib_file):
    for argv in (
        ["validate", "--matrix", fib_file, "--json"],
        ["ktheory", "--matrix", fib_file, "--json", "--duality"],
        ["fock-verify", "--matrix", fib_file, "--json"],
        ["lemma-verify", "--matrix", fib_file, "--which", "W", "--json"],
        ["pairing", "--matrix", fib_file, "--json"],
        ["words", "--matrix", fib_file, "--length", "3", "--json"],
    ):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert out1 == out2  # byte-identical
        assert code1 == code2
        assert json.loads(out1) == json.loads(out2)


def _assert_writes_json_dumps(obj) -> None:
    buf = io.StringIO()
    cli._write_json(buf.write, obj)
    got, want = buf.getvalue(), json.dumps(obj, indent=2)
    if got != want:  # pytest's own diff of two long texts takes minutes
        at = next(i for i, (x, y) in enumerate(zip(got + "\0", want + "\1")) if x != y)
        pytest.fail(f"differs at {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


_JSON_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(min_value=-10**40, max_value=10**40)
)
# flat lists, so the joined int and str paths and their near misses are common
_FLAT_LISTS = (
    st.lists(st.integers(min_value=-10**30, max_value=10**30))
    | st.lists(st.integers(min_value=-2, max_value=2) | st.booleans())
    | st.lists(st.text(alphabet="a1 ε⊗Ω\"\\\n\x00\ud800"))
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _FLAT_LISTS | _FLAT_LISTS.map(tuple),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=30,
)


# A slice of two entries splits every flat list of three or more.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_writer_text_equals_json_dumps_indent_2(obj):
    with mock.patch.object(cli, "_JOIN_SLICE", 2):
        _assert_writes_json_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": [[0, 1] * 5000, [1] * (cli._JOIN_SLICE + 1)], "n": 2},
        {"words": ["12", "ε", ""] * cli._JOIN_SLICE, "count": 3 * cli._JOIN_SLICE},
        [1, True, 2],
        [{}, [], (), "", 0, None],
        {1: [1, 2], "a": {"b": ()}},
    ],
    ids=["long-int-rows", "long-str-list", "bool-in-ints", "empties", "int-key"],
)
def test_writer_examples_equal_json_dumps_indent_2(obj):
    _assert_writes_json_dumps(obj)


@pytest.fixture
def mixed4b2_file(tmp_path):
    # 10 states, so the words that hold letter 10 render dot-separated
    p = tmp_path / "mixed4b2.json"
    p.write_text(json.dumps(higher_block(MIXED4, 2).to_json()))
    return str(p)


@pytest.mark.parametrize("matrix", ["fib_file", "mixed4b2_file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["words", "--length", "0"],
        ["words", "--length", "3"],
        ["ktheory"],
        ["ktheory", "--duality"],
        ["fock-verify", "--max-length", "3"],
        ["lemma-verify", "--which", "W", "--max-length", "3"],
        ["lemma-verify", "--which", "V", "--max-length", "3"],
        ["lemma-verify", "--which", "toeplitz", "--max-length", "3"],
        ["pairing", "--max-length", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_json_stdout_is_json_dumps_indent_2(capsys, request, matrix, argv):
    path = request.getfixturevalue(matrix)
    _code, out, _err = run(capsys, argv[0], "--matrix", path, *argv[1:], "--json")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# The first offender in row-major order is named.  In the first layout the
# entry is the only offender of its row and a later row holds 9 at column 1;
# in the second a 5 follows it in its own row.
@pytest.mark.parametrize(
    "entry, shown",
    [("true", "True"), ("1.0", "1.0"), ("2", "2"), ('"1"', "'1'")],
    ids=["true", "float", "two", "string"],
)
@pytest.mark.parametrize(
    "layout",
    [
        "[[1, 1, 1], [1, 0, %s], [9, 1, 1]]",
        "[[1, 1, 1], [1, %s, 5], [1, 1, 1]]",
    ],
    ids=["later-row", "same-row"],
)
def test_json_entry_outside_0_1_exits_2_naming_the_first(capsys, tmp_path, entry, shown, layout):
    p = tmp_path / "m.json"
    p.write_text('{"n": 3, "rows": %s}' % (layout % entry))
    code, out, err = run(capsys, "validate", "--matrix", str(p))
    assert code == 2
    assert out == ""
    assert err == f"error: entry {shown} is not 0 or 1\n"


# The all-ones 4 x 4 matrix has 4^m words of length m, the 2 x 2 swap two.
ONES4_LETTERS_TO_14 = sum(4**m * m for m in range(15))


@pytest.mark.parametrize(
    "rows, argv, exact",
    [
        ([[1] * 4] * 4, ["fock-verify", "--max-length", "14"], ONES4_LETTERS_TO_14),
        ([[1] * 4] * 4, ["lemma-verify", "--max-length", "14"], ONES4_LETTERS_TO_14),
        ([[1] * 4] * 4, ["pairing", "--max-length", "14"], ONES4_LETTERS_TO_14),
        ([[0, 1], [1, 0]], ["words", "--length", "1000000000"], 2 * 10**9),
    ],
    ids=["fock-verify", "lemma-verify", "pairing", "words"],
)
def test_size_budget_rejects_from_the_count_alone(capsys, monkeypatch, tmp_path, rows, argv, exact):
    def never(*_args):
        raise AssertionError("enumerated words over the budget")

    monkeypatch.setattr(sft, "enumerate_words", never)
    monkeypatch.setattr(fock, "enumerate_words", never)
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"n": len(rows), "rows": rows}))
    code, out, err = run(capsys, argv[0], "--matrix", str(p), *argv[1:])
    assert code == 2
    assert out == ""
    letters = int(err.split("at least ")[1].split()[0])
    assert cli.LETTER_BUDGET < letters <= exact
    assert f"budget of {cli.LETTER_BUDGET}" in err


# subprocess runs of inputs the letter budget admits but whose enumeration
# once grew faster than its output: the words of [[1]] up to length 4,000
# (8,002,000 letters; a basis built one length at a time took cubic time)
# and the 3,001 words of [[1, 1], [0, 1]] at length 3,000 (every prefix
# copied once per length step, 133 s)
@pytest.mark.parametrize(
    "rows, argv",
    [
        ([[1]], ["fock-verify", "--max-length", "4000"]),
        ([[1, 1], [0, 1]], ["words", "--length", "3000"]),
    ],
    ids=["fock-verify-4000", "words-3000"],
)
def test_enumeration_admitted_by_the_budget_finishes(tmp_path, rows, argv):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"n": len(rows), "rows": rows}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ckdual.cli", argv[0], "--matrix", str(p), *argv[1:]],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "words":
        assert proc.stdout.count("\n") == 3001
    else:
        assert proc.stdout.splitlines() == ["i(k=1): ok", "ii(k=1): ok", "iii(k=1,l=1): ok",
                                            "iv(k=1,l=1): ok"]


# Inputs that once ended in a traceback (exit 3: Python's limit on
# int-string conversion) or echoed the whole offending row.
LONG_INPUTS = {
    "json-n": '{"n": 1' + "0" * 5000 + ', "rows": [[1]]}',
    "json-entry": '{"n": 1, "rows": [[1' + "0" * 5000 + "]]}",
    "text-row": "1" * 5000 + "\n",
}


@pytest.mark.parametrize("name", sorted(LONG_INPUTS))
def test_long_literal_or_row_exits_2_with_a_short_message(capsys, tmp_path, name):
    p = tmp_path / "m"
    p.write_text(LONG_INPUTS[name])
    code, out, err = run(capsys, "validate", "--matrix", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err) < 200


def test_max_length_validation(capsys, fib_file):
    with pytest.raises(SystemExit) as exc:
        main(["fock-verify", "--matrix", fib_file, "--max-length", "1"])
    assert exc.value.code == 2


def test_boolean_n_exits_2(capsys, tmp_path):
    p = tmp_path / "bool.json"
    p.write_text('{"n": true, "rows": [[1]]}')
    code, _out, err = run(capsys, "validate", "--matrix", str(p))
    assert code == 2
    assert '"n" must be an integer' in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["words", "--length", "-1"], "--length must be >= 0"),
        (["fock-verify", "--max-length", "-1"], "--max-length must be >= 2"),
        (["lemma-verify", "--max-length", "-1"], "--max-length must be >= 2"),
        (["pairing", "--max-length", "-1"], "--max-length must be >= 2"),
        (["words", "--length", "x"], "--length must be an integer"),
        (["fock-verify", "--max-length", "abc"], "--max-length must be an integer"),
        (["pairing", "--max-length", "2.5"], "--max-length must be an integer"),
        # past Python's limit on int-string conversion (4,300 digits by default)
        (["words", "--length", "1" * 5000], "--length is too long: 5000 digits"),
        (["pairing", "--max-length", "1" * 5000], "--max-length is too long: 5000 digits"),
    ],
)
def test_negative_lengths_rejected_at_parsing(capsys, fib_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--matrix", fib_file, *argv[1:]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_text_format_matrix_accepted(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1\n1 0\n")
    code, out, _err = run(capsys, "validate", "--matrix", str(p))
    assert code == 0
    assert "valid: true" in out


@pytest.fixture
def ident2_file(tmp_path):
    p = tmp_path / "ident2.json"
    p.write_text('{"n": 2, "rows": [[1, 0], [0, 1]]}')
    return str(p)


# Exit codes of the operator commands on SWAP and IDENT2; the Cantor warning
# goes to stderr and leaves them, and stdout, as they are.
NON_CANTOR_EXITS = [
    (["fock-verify"], 1),
    (["lemma-verify", "--which", "W"], 1),
    (["lemma-verify", "--which", "V"], 0),
    (["lemma-verify", "--which", "toeplitz"], 0),
    (["pairing"], 0),
]


@pytest.mark.parametrize("matrix", ["swap_file", "ident2_file"])
@pytest.mark.parametrize("argv, exit_code", NON_CANTOR_EXITS)
def test_operator_commands_warn_without_cantor_condition(
    capsys, request, matrix, argv, exit_code
):
    path = request.getfixturevalue(matrix)
    code, out, err = run(capsys, argv[0], "--matrix", path, *argv[1:], "--json")
    assert code == exit_code
    assert json.loads(out)
    assert err.startswith("warning: shift space is not a Cantor set")


@pytest.mark.parametrize("argv, _exit_code", NON_CANTOR_EXITS)
def test_operator_commands_silent_on_cantor_matrix(capsys, fib_file, argv, _exit_code):
    _code, _out, err = run(capsys, argv[0], "--matrix", fib_file, *argv[1:], "--json")
    assert err == ""
