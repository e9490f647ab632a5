"""Only what the CLI or the benchmark runs stays in the library.

``src/ckdual`` and ``bench/*.py`` are parsed, not imported.  Every public
module function, every public method of a module-level class, and every name
that ``ckdual/__init__.py`` exports must be named somewhere that runs: in
``src/ckdual`` outside its own definition and outside ``__init__.py``, or
anywhere in ``bench/*.py`` (string constants included, since the tracer names
what it wraps by string).  A name used only inside definitions that are
themselves unused is unused too, so the check runs to a fixed point.  Tests
are no caller: a function only they need belongs in ``tests/``.

Matching is by name.  A method counts as named by an attribute read
(``x.name``); a function, class or constant by a bare name or an attribute
read (``module.name``).  Dunder methods run by syntax and are not checked.
A method that shares its name with another attribute in use (``index`` with
``SectorIndex.index``) is out of this test's sight.

The same parse holds basis words to ``fock``: no other module reads an
attribute named ``words``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ckdual"
BENCH = ROOT / "bench"

# name -> why it stays although nothing that runs names it
KEEP = {
    "theta": "the paper's circle-twist automorphism of O_A (x) C(S^1); tier-1 checks "
             "that it is an automorphism and fixes 1 (x) z",
    "alpha_bar": "the paper's transport of the generators of O_A (x) C(S^1) into "
                 "O_A (x) O_{A^T} (x) O_A; tier-1 checks it on generators and words",
    "w_element": "the paper's element w = sum_i s_i* (x) t_i; tier-1 checks "
                 "w*w = ww* on the exhaustive families",
    "w_range_projection": "the common value of w*w and ww* that tier-1 compares w with",
}


def _definitions(tree, module: str) -> list:
    """(qualified name, bare name, kind, first line, last line) of each public
    module-level function, class and constant and each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((f"{module}.{node.name}", node.name, "function", node))
        elif isinstance(node, ast.ClassDef):
            out.append((f"{module}.{node.name}", node.name, "class", node))
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out.append((f"{module}.{node.name}.{item.name}", item.name, "method", item))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(f"{module}.{t.id}", t.id, "constant", node)
                    for t in targets if isinstance(t, ast.Name)]
    return [(q, name, kind, node.lineno, node.end_lineno)
            for q, name, kind, node in out if not name.startswith("_")]


def _references(tree, strings: bool) -> list:
    """(name, line, is attribute read) of every name read in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno, True))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, node.lineno, True))
    return out


def _exports(init_tree) -> list:
    """(module, name) of each name ``__init__.py`` imports from a submodule."""
    return [(node.module, alias.name) for node in init_tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def unused_names(sources: dict, bench_sources: list, keep=KEEP) -> list:
    """The qualified names that nothing that runs names, sorted.

    ``sources`` maps each module of the package (``"__init__"`` included) to
    its source text; ``bench_sources`` holds the benchmark's source texts.
    """
    defs, refs = [], []
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        defs += [(module,) + d for d in _definitions(tree, module)]
        refs += [(module,) + r for r in _references(tree, strings=False)]
    bench = {name for text in bench_sources
             for name, _line, _attr in _references(ast.parse(text), strings=True)}
    exported = set(_exports(ast.parse(sources.get("__init__", ""))))
    checked = [d for d in defs
               if d[3] in ("function", "method") or (d[0], d[2]) in exported]
    missing = [f"{module}.{name}" for module, name in exported
               if not any(d[0] == module and d[2] == name for d in defs)]
    # each reference belongs to the innermost checked definition around it,
    # or to none: module-level code and private helpers always run
    owned = []
    for module, name, line, attr in refs:
        around = [d for d in checked if d[0] == module and d[4] <= line <= d[5]]
        owner = max(around, key=lambda d: d[4])[1] if around else None
        owned.append((module, name, line, attr, owner))
    live = {d[1] for d in checked if d[2] in keep or d[2] in bench}
    changed = True
    while changed:
        changed = False
        for module, qual, name, kind, first, last in checked:
            if qual not in live and any(
                    r[1] == name and (r[3] or kind != "method")
                    and not (r[0] == module and first <= r[2] <= last)
                    and (r[4] is None or r[4] in live) for r in owned):
                live.add(qual)
                changed = True
    return sorted(d[1] for d in checked if d[1] not in live) + missing


def _read_tree():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    return sources, bench


def test_every_public_name_is_used_by_the_library_or_the_benchmark():
    sources, bench = _read_tree()
    assert unused_names(sources, bench) == []


def test_every_kept_name_still_exists_and_is_otherwise_unused():
    # a kept name that the library starts to use, or that is deleted, leaves
    # the keep-list
    sources, bench = _read_tree()
    assert unused_names(sources, bench, keep={}) == sorted(f"ckalg.{name}" for name in KEEP)


def test_only_fock_reads_basis_words():
    # defect columns and error messages render words in ``fock``; every other
    # module handles basis positions
    sources, _bench = _read_tree()
    readers = sorted({module for module, text in sources.items()
                      for name, _line, attr in _references(ast.parse(text), strings=False)
                      if attr and name == "words"})
    assert [m for m in readers if m != "fock"] == []


_MODULE = '''
def used():
    return helper()

def helper():
    return 1

def unused():
    return only_here()

def only_here():
    return unused()

class Box:
    def read(self):
        return self.width

    @property
    def width(self):
        return 1

    def spare(self):
        return 0

    def __str__(self):
        return ""

def main():
    return used() + Box().read()

VALUE = 1
'''


def test_finds_unused_functions_chains_methods_and_exports():
    init = "from .mod import Box, VALUE, used, gone\n"
    sources = {"__init__": init, "mod": _MODULE, "cli": "from .mod import main\nmain()\n"}
    assert unused_names(sources, []) == [
        "mod.Box.spare", "mod.VALUE", "mod.only_here", "mod.unused", "mod.gone"]


def test_bench_reads_and_the_keep_list_count_as_uses():
    init = "from .mod import Box, VALUE, used\n"
    sources = {"__init__": init, "mod": _MODULE, "cli": "from .mod import main\nmain()\n"}
    bench = ['FUNCTIONS = (("mod", "unused"),)\nprint(box.spare())\n']
    # ``unused`` is read by the benchmark, so ``only_here``, called by it, is used
    assert unused_names(sources, bench, keep={"VALUE": "reason"}) == []
