"""Modules of the package share only public names and import only what
they use, and every export implements a paper object or has a caller."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pathcalc

PACKAGE = Path(pathcalc.__file__).parent


def test_no_module_imports_another_modules_private_names():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if not node.level and source.split(".")[0] != "pathcalc":
                continue
            from_package = source in ("", "pathcalc")
            for alias in node.names:
                # a private module such as _kernels may be imported whole
                if alias.name.startswith("_") \
                        and not (from_package and alias.name in modules):
                    bad.append(f"{path.name}: from {'.' * node.level}"
                               f"{source} import {alias.name}")
    assert not bad


def test_no_module_has_an_unused_import():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":      # its imports are re-exports
            continue
        tree = ast.parse(path.read_text())
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        bad += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not bad


def test_import_leaves_scipy_unloaded_until_the_first_normal_draw():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, pathcalc\n"
            "print('scipy' in sys.modules)\n"
            "pathcalc.rng.normals(0, 0, 2)\n"
            "print('scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "True"]


REPO = Path(__file__).resolve().parents[1]

# exports that implement no paper object, each mapped to the file of its
# caller: the CLI or an acceptance criterion
CALLERS = {
    "ConfigError": "src/pathcalc/cli.py",
    "DomainError": "src/pathcalc/cli.py",
    "NumericalError": "src/pathcalc/cli.py",
    "numerical_derivatives": "tests/test_acceptance.py",
    "rng": "tests/test_acceptance.py",
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _paper_table():
    """Names in the last column of the README's "Paper to code" table."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Paper to code\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {name for row in rows[2:]
            for name in re.findall(r"`(\w+)`", row.split("|")[-2])}


def test_every_export_has_a_paper_row_or_a_caller():
    table = _paper_table()
    exports = _exports()
    assert not table - exports, "the table names what is not exported"
    bare = sorted(exports - table - set(CALLERS))
    assert not bare, "exports with neither a paper row nor a caller"
    for name, path in CALLERS.items():
        assert name in exports
        assert re.search(rf"\b{name}\b", (REPO / path).read_text()), \
            f"{path} does not call {name}"
