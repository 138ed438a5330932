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


def _readme_table(heading):
    """The cells of each body row of the table under a README heading."""
    text = (REPO / "README.md").read_text()
    section = text.split(f"\n## {heading}\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows[2:]]


def _paper_table():
    """Names in the last column of the README's "Paper to code" table."""
    return {name for row in _readme_table("Paper to code")
            for name in re.findall(r"`(\w+)`", row[-1])}


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


# The entry rules, by module: each checks one kind of argument and raises
# one of pathcalc's errors naming it.
RULES = {
    "errors": ("require_count", "require_finite", "require_reals",
               "require_time", "require_shape", "require_times",
               "require_grid", "require_finite_steps"),
    "paths": ("_require_mode", "_node_values", "require_path"),
    "functionals": ("require_field", "require_derivatives"),
    "deriv": ("_require_ratio", "require_ladder"),
    "fk": ("_require_spec",),
    "rng": ("require_stream",),
    "pathology": ("_require_1d",),
}


class _Source:
    """The modules of src/pathcalc as ast: their functions and classes, and
    what each module's names resolve to through its `from .x import`
    lines, a (module, name) pair or (module, None) for a module."""

    def __init__(self):
        self.defs, self.classes, self.names = {}, {}, {}
        for path in sorted(PACKAGE.glob("*.py")):
            mod, names = path.stem, {}
            self.names[mod] = names
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    kind = self.defs if isinstance(node, ast.FunctionDef) \
                        else self.classes
                    kind[mod, node.name] = node
                    names[node.name] = (mod, node.name)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    for alias in node.names:
                        names[alias.asname or alias.name] = \
                            (node.module, alias.name) if node.module \
                            else (alias.name, None)

    def bases(self, cls):
        for base in self.classes[cls].bases:
            if isinstance(base, ast.Name):
                key = self.names[cls[0]].get(base.id)
                if key in self.classes:
                    yield key

    def method(self, cls, name):
        """(class, def) of the method name of cls, or of its first base
        that has it; None if none has."""
        for node in self.classes[cls].body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return cls, node
        return next(filter(None, (self.method(b, name)
                                  for b in self.bases(cls))), None)

    def constructor(self, cls):
        """(class, def) of what a call of cls runs: __init__, and
        __post_init__ after a dataclass's generated __init__."""
        return [m for m in (self.method(cls, "__init__"),
                            self.method(cls, "__post_init__")) if m]

    def fields(self, cls):
        return [f for b in self.bases(cls) for f in self.fields(b)] \
            + [node.target.id for node in self.classes[cls].body
               if isinstance(node, ast.AnnAssign)]

    def targets(self, call, mod, cls):
        """(module, class or None, def) of each function that a call runs,
        resolved by name: a module function, self.m or super().m up the
        base classes, rng.f of an imported module, or a class's
        constructor.  Any other call is not followed."""
        func = call.func
        if isinstance(func, ast.Name):
            key = self.names[mod].get(func.id)
            if key in self.defs:
                return [(key[0], None, self.defs[key])]
            if key in self.classes:
                return [(c[0], c, fn) for c, fn in self.constructor(key)]
            return []
        if not isinstance(func, ast.Attribute):
            return []
        owner = func.value
        if cls and (isinstance(owner, ast.Name) and owner.id == "self"
                    or isinstance(owner, ast.Call)
                    and isinstance(owner.func, ast.Name)
                    and owner.func.id == "super"):
            start = [cls] if isinstance(owner, ast.Name) \
                else list(self.bases(cls))
            found = next(filter(None, (self.method(c, func.attr)
                                       for c in start)), None)
            return [(found[0][0], found[0], found[1])] if found else []
        if isinstance(owner, ast.Name):
            key = self.names[mod].get(owner.id)
            if key and key[1] is None and (key[0], func.attr) in self.defs:
                return [(key[0], None, self.defs[key[0], func.attr])]
        return []


def _calls(fn):
    """The calls in fn's body that run when fn runs: nested defs, lambdas
    and classes run when called, not at entry, and are skipped."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _reported(rule, call):
    """The names that a rule call reports: the keywords of require_path,
    the name argument of a rule that takes one (an f-string with its
    fields as written), else the variable it checks, self.v as v."""
    if rule.name == "require_path":
        return [k.arg for k in call.keywords if k.arg != "family"]
    arg = call.args[0] if call.args else None
    if rule.args.args[0].arg == "name":
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg.value]
        if isinstance(arg, ast.JoinedStr):
            return ["".join(v.value if isinstance(v, ast.Constant)
                            else ast.unparse(v.value) for v in arg.values)]
        return []
    if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) \
            and arg.value.id == "self":
        return [arg.attr]
    return [arg.id] if isinstance(arg, ast.Name) else []


def _entries(src):
    """(entry, defs it runs, parameters) of each export: a function, a
    class's constructor, and each public method defined in an exported
    class, as Class.method."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        for alias in node.names:
            key = (node.module, alias.name)
            if key in src.defs:
                fn = src.defs[key]
                yield alias.name, [(key[0], None, fn)], _params(fn)
            if key not in src.classes:
                continue
            runs = src.constructor(key)
            if runs:
                params = [p for cls, fn in runs for p in (
                    src.fields(key) if fn.name == "__post_init__"
                    else _params(fn))]
                yield alias.name, [(c[0], c, fn) for c, fn in runs], params
            for fn in src.classes[key].body:
                if isinstance(fn, ast.FunctionDef) and not fn.decorator_list \
                        and not fn.name.startswith("_"):
                    yield f"{alias.name}.{fn.name}", [(key[0], key, fn)], \
                        _params(fn)


def _params(fn):
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
            if p.arg != "self"]


def entry_map():
    """{(rule, entry, parameter)}: the rules that each export of pathcalc
    applies to its own parameters, read from src/pathcalc with ast alone.

    A rule call counts for an entry when it sits in the entry's body or in
    any function of the package that the entry calls by name (_Source
    .targets), a rule's own body included.  It is kept when the name it
    reports is one of the entry's parameters, or an item p[...] of one;
    names of values the code computed, such as a flow's seg_times, are
    dropped."""
    src = _Source()
    pairs = set()
    for entry, runs, params in _entries(src):
        seen = set()
        todo = list(runs)
        while todo:
            mod, cls, fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for call in _calls(fn):
                for target in src.targets(call, mod, cls):
                    todo.append(target)
                    tmod, tcls, rule = target
                    if tcls or rule.name not in RULES.get(tmod, ()):
                        continue
                    for name in _reported(rule, call):
                        if re.sub(r"\[.*\]$", "", name) in params:
                            pairs.add((rule.name, entry, name))
    return pairs


def _contract_table():
    """{rule: {(entry, parameter)}} of the README's "Entry rules" table."""
    table = {}
    for row in _readme_table("Entry rules"):
        rule = re.match(r"`(?:\w+\.)?(\w+)`", row[0]).group(1)
        table[rule] = {(entry, p.strip()) for entry, params in
                       re.findall(r"`([\w.]+)\(([^`]*)\)`", row[-1])
                       for p in params.split(",")}
    return table


def test_the_readme_contract_table_is_the_entry_map():
    table = _contract_table()
    defs = _Source().defs
    assert not [f"{mod}.{rule}" for mod, rules in RULES.items()
                for rule in rules if (mod, rule) not in defs], "no rule"
    assert sorted(table) == sorted(r for rules in RULES.values()
                                   for r in rules), "one row per rule"
    listed = {(r, e, p) for r, pairs in table.items() for e, p in pairs}
    mapped = entry_map()
    unlisted = sorted(f"{r}: {e}({p})" for r, e, p in mapped - listed)
    assert not unlisted, "rule calls that the README table does not list"
    stale = sorted(f"{r}: {e}({p})" for r, e, p in listed - mapped)
    assert not stale, "README table pairs that the code does not check"
