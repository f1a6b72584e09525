"""Every name a `lukas` module imports is used in that module, and every
module-level name is read somewhere in the package, apart from two public
references that only the tests read.  No linter ships with the package, so
this stands in for unused-import and dead-code checks.  A command loads only
the modules it needs, and the functions the benchmark traces still exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lukas"
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from .kernel import Hypothesis, Step, rejects\nimport json\nrejects(1)\n"
    assert unused_imports(source) == ["Hypothesis (line 1)", "Step (line 1)", "json (line 2)"]


def unread_names(sources: dict[str, str]) -> list[str]:
    """The names (not `__x__`) that a module of `sources` binds at its top
    level and that no module reads, imports or takes as an attribute, each
    as `module:name`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if not name.endswith("__") and name not in read]
    return unread


def _private(name: str) -> bool:
    return name.split(":")[1].startswith("_")


def test_every_private_name_is_read():
    unread = unread_names({p.stem: p.read_text() for p in SOURCES})
    assert [name for name in unread if _private(name)] == []


#: Public names that nothing in the package reads: the tests, and the
#: scripts, use them as references.
TEST_REFERENCES = ["semantics:check_adequacy", "semantics:p_morphic_reduct_exists"]


def test_every_public_name_is_read():
    unread = unread_names({p.stem: p.read_text() for p in SOURCES})
    assert [name for name in unread if not _private(name)] == TEST_REFERENCES


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n_OLD = 3\n__version__ = 4\n"
             "def _dead():\n    return _A\nclass _Unused:\n    pass\n",
        "b": "from .a import _B\n_helper: int = 5\n",
    }
    assert unread_names(sources) == ["a:_OLD", "a:_dead", "a:_Unused", "b:_helper"]


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a": "LIMIT, USED = 1, 2\ndef unused():\n    return USED\n"
             "class Kept:\n    pass\nclass Dropped:\n    pass\n",
        "b": "from .a import Kept\nSPARE: int = 3\n",
    }
    assert unread_names(sources) == ["a:LIMIT", "a:unused", "a:Dropped", "b:SPARE"]


CORPUS = PACKAGE.parent.parent / "perfbench" / "corpus"


@pytest.mark.parametrize("argv, absent", [
    (None, ["dataclasses", "inspect"]),
    (["check", str(CORPUS / "scripts" / "s000.proof"), "--system", str(CORPUS / "cpc.ds")],
     ["lukas.prover", "lukas.transforms"]),
    (["ipc", "p -> p"], ["lukas.transforms"]),
    (["jankov", "--frame", str(CORPUS / "point.frame")], ["lukas.prover", "lukas.transforms"]),
], ids=["import", "check", "ipc", "jankov"])
def test_a_command_loads_only_what_it_needs(argv, absent):
    """In a fresh interpreter, importing `lukas.cli`, and running a command,
    loads none of the modules in `absent`."""
    code = ("import sys\nimport lukas.cli\n"
            f"code = 0 if {argv!r} is None else lukas.cli.main({argv!r})\n"
            "print(code, *sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "lukas.cli" in modules
    assert [m for m in absent if m in modules] == []


SPANS = PACKAGE.parent.parent / "perfbench" / "spans.py"


def traced_boundaries() -> list[tuple[str, str, str]]:
    """(name, module, attribute) of each entry of `BOUNDARIES` in the
    benchmark's tracer, read from its source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return [entry[:3] for entry in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py assigns no BOUNDARIES")


def test_the_traced_boundaries_resolve():
    """A boundary that names no function reads 0 on every per-layer metric,
    so a rename in `lukas` must not add one silently.  These four name
    functions that were deleted or renamed earlier."""
    unresolved = []
    for name, module, attribute in traced_boundaries():
        target = importlib.import_module(module)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if target is None:
            unresolved.append(name)
    assert unresolved == ["transforms.convert", "prover.elaborate", "prover.derive",
                          "kernel.ipc_axioms"]
