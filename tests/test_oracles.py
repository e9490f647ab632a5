"""The oracles stay independent of the code they check.

``oracles.py`` is parsed, not imported.  Every word-model function, and every
function of that file it calls, must read adjacency through ``entry`` alone,
so none may read ``succ`` or ``pred`` or use a name bound to ``ckdual.ckalg``.
The dense reference ``one_minus``, with what it calls, keeps the same rule
against ``ckdual.ktheory``, whose presentation it checks.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().with_name("oracles.py")

WORD_MODEL = ("_annihilate", "_create", "pair_action_on_word", "ck_action_on_word",
              "ck_compose_on_word")

DENSE_REFERENCE = ("one_minus",)

FORBIDDEN_ATTRIBUTES = {"succ", "pred"}


def _names_bound_to(tree, module: str) -> set:
    """Names the module binds to ``ckdual.<module>`` or to anything imported from it."""
    full = f"ckdual.{module}"
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == full or (node.module == "ckdual" and alias.name == module):
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("ckdual", full):
                    names.add(alias.asname or "ckdual")
    return names


def word_model_violations(source: str) -> list:
    return _violations(source, "word-model", WORD_MODEL, "ckalg")


def dense_reference_violations(source: str) -> list:
    return _violations(source, "dense-reference", DENSE_REFERENCE, "ktheory")


def _violations(source: str, kind: str, roots: tuple, module: str) -> list:
    """Every read of ``succ``/``pred`` and every name bound to ``ckdual.<module>``
    in the functions ``roots`` and the module functions they reach."""
    tree = ast.parse(source)
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    missing = [name for name in roots if name not in functions]
    if missing:
        return [f"{kind} function {name} is missing" for name in missing]
    forbidden = _names_bound_to(tree, module)
    todo, seen, problems = list(roots), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
                problems.append(f"{name} reads .{node.attr} (line {node.lineno})")
            elif isinstance(node, ast.Constant) and node.value in FORBIDDEN_ATTRIBUTES:
                problems.append(f"{name} names {node.value!r} (line {node.lineno})")
            elif isinstance(node, ast.Name):
                if node.id in forbidden:
                    problems.append(f"{name} uses {node.id} from ckdual.{module} (line {node.lineno})")
                elif node.id in functions:
                    todo.append(node.id)
    return problems


def test_word_model_reads_neither_succ_nor_ckalg():
    assert word_model_violations(ORACLES.read_text(encoding="utf-8")) == []


def test_independence_check_catches_each_kind_of_violation():
    source = ORACLES.read_text(encoding="utf-8")
    create = "    if w and not a.entry(k0, w[0]):\n"
    assert create in source
    mutants = {
        "reads .succ": create.replace("not a.entry(k0, w[0])", "w[0] not in a.succ[k0]"),
        "reads .pred": create.replace("not a.entry(k0, w[0])", "k0 not in a.pred[w[0]]"),
        "uses ckalg from ckdual.ckalg": create.replace(
            "not a.entry(k0, w[0])", "not ckalg._continuations(a, (k0,), w)"),
    }
    for what, line in mutants.items():
        problems = word_model_violations(source.replace(create, line))
        assert len(problems) == 1 and what in problems[0], (what, problems)
    renamed = source.replace("def _annihilate(", "def _annihilate_word(")
    assert word_model_violations(renamed) == ["word-model function _annihilate is missing"]


def test_dense_reference_reads_neither_succ_nor_ktheory():
    assert dense_reference_violations(ORACLES.read_text(encoding="utf-8")) == []


def test_dense_reference_check_catches_each_kind_of_violation():
    source = ORACLES.read_text(encoding="utf-8")
    entry = "int(i == j) - a.entry(i, j) for j in range(n)"
    imports = "from ckdual import ckalg\n"
    assert source.count(entry) == 1 and imports in source
    mutants = {
        "reads .succ": source.replace(entry, "int(i == j) - (j in a.succ[i]) for j in range(n)"),
        "reads .pred": source.replace(entry, "int(i == j) - (i in a.pred[j]) for j in range(n)"),
        # the import alone binds the name; only the use inside one_minus violates
        "uses ktheory from ckdual.ktheory": source.replace(
            imports, imports + "from ckdual import ktheory\n").replace(
            entry, "ktheory.presentation_pair(a)[0].entry(i, j) for j in range(n)"),
    }
    for what, mutant in mutants.items():
        problems = dense_reference_violations(mutant)
        assert len(problems) == 1 and what in problems[0], (what, problems)
    renamed = source.replace("def one_minus(", "def dense_one_minus(")
    assert dense_reference_violations(renamed) == ["dense-reference function one_minus is missing"]
