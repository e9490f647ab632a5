"""The word-model oracle stays independent of the code it checks.

``oracles.py`` is parsed, not imported: every word-model function, and every
function of that file it calls, must read adjacency through ``entry`` alone,
so none may read ``succ`` or ``pred`` or use a name bound to ``ckdual.ckalg``.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().with_name("oracles.py")

WORD_MODEL = ("_annihilate", "_create", "pair_action_on_word", "ck_action_on_word",
              "ck_compose_on_word")

FORBIDDEN_ATTRIBUTES = {"succ", "pred"}


def _ckalg_names(tree) -> set:
    """Names the module binds to ``ckdual.ckalg`` or to anything imported from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "ckdual.ckalg" or (node.module == "ckdual" and alias.name == "ckalg"):
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("ckdual", "ckdual.ckalg"):
                    names.add(alias.asname or "ckdual")
    return names


def word_model_violations(source: str) -> list:
    """Every read of ``succ``/``pred`` and every ckalg name in the word model
    and the module functions it reaches."""
    tree = ast.parse(source)
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    missing = [name for name in WORD_MODEL if name not in functions]
    if missing:
        return [f"word-model function {name} is missing" for name in missing]
    ckalg = _ckalg_names(tree)
    todo, seen, problems = list(WORD_MODEL), set(), []
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
                if node.id in ckalg:
                    problems.append(f"{name} uses {node.id} from ckdual.ckalg (line {node.lineno})")
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
