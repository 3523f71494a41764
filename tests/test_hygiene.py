"""Source hygiene checks on the package code."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pi1curves"


def test_no_assert_in_package_code():
    # invariants are require(..., "INTERNAL_INVARIANT", ...): an assert
    # disappears under python -O and ends in a traceback, not a DomainError
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _module_level(tree):
    """The statements that run at import: the module body and the blocks of
    its if/try/with statements, but no function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, block, []))


def _is_mutable_container(value) -> bool:
    if isinstance(value, ast.Call):
        return isinstance(value.func, ast.Name) \
            and value.func.id in ("dict", "list", "set")
    return isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp))


def test_no_module_level_mutable_state():
    # no unbounded global state: the one module-level container left is the
    # always-empty perms._INTERNED, whose size the benchmark still reports
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _module_level(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                    and node.value is not None \
                    and _is_mutable_container(node.value):
                targets = getattr(node, "targets", None) or [node.target]
                found += [f"{path.stem}.{ast.unparse(t)}" for t in targets]
    assert found == ["perms._INTERNED"]


def test_caches_decorate_only_zero_argument_functions():
    # a cache on a function with arguments grows with every new argument
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            takes_arguments = (args.posonlyargs or args.args or args.vararg
                               or args.kwonlyargs or args.kwarg)
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = ast.unparse(decorator).rsplit(".", 1)[-1]
                if name in ("cache", "lru_cache") and takes_arguments:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _tracing_spans() -> dict:
    """SPANS of the benchmark's tracer, perfbench/tracing.py, loaded by
    path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_tracing_spans_resolve():
    # the benchmark's tracer wraps these entry points by name, methods
    # through their class __dict__; one renamed or deleted here would
    # break traced runs
    spans = _tracing_spans()
    missing = []
    for targets in spans.values():
        for target in targets:
            module_name, attr = target.split(":")
            owner = importlib.import_module(f"pi1curves.{module_name}")
            *classes, name = attr.split(".")
            for cls in classes:
                owner = vars(owner).get(cls)
            if owner is None or not callable(vars(owner).get(name)):
                missing.append(target)
    assert sum(map(len, spans.values())) > 40
    assert missing == []


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_package_caller():
    # a public function or class that no other package statement names is
    # code only the tests reach; the tracer's entry points and the paper's
    # factorization into elementary identifications (criterion 1) stay
    named = [(path.stem, node, _names(node))
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    kept = {"curves.factorize", "curves.replay"}
    for targets in _tracing_spans().values():
        for target in targets:
            module, attr = target.split(":")
            kept.add(f"{module}.{attr.split('.')[0]}")
    unreached = [
        f"{module}.{node.name}" for module, node, _ in named
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
        and f"{module}.{node.name}" not in kept
        and not any(node.name in names
                    for _, other, names in named if other is not node)]
    assert unreached == []


def test_no_package_module_imports_dataclasses():
    # records are named tuples and PermutationGroup a __slots__ class:
    # dataclasses imports inspect, ast, dis and tokenize, and decorating a
    # class costs about a millisecond, at every process start
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_fresh_interpreter_imports_no_dataclasses():
    code = ("import sys\n"
            "before = 'dataclasses' in sys.modules\n"
            "import pi1curves.cli, pi1curves.oracle\n"
            "print(before, 'dataclasses' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["False", "False"]


def test_no_except_catches_key_type_or_attribute_errors():
    # JSON input is checked field by field (errors.fields, errors.typed)
    # before it is used; a handler that catches KeyError, TypeError or
    # AttributeError after the fact would also turn a bug into a bad-file
    # error, and so would a bare except or one for Exception
    broad = {"KeyError", "TypeError", "AttributeError", "LookupError",
             "Exception", "BaseException"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            names = {ast.unparse(t).rsplit(".", 1)[-1] for t in caught
                     if t is not None}
            if node.type is None or names & broad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _tuple_maps_of_getitem(tree) -> list:
    """The lines that build tuple(map(<x>.__getitem__, ...)): a composition
    of image tuples or position rows written out by hand."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) == "map" and node.args[0].args
            and isinstance(node.args[0].args[0], ast.Attribute)
            and node.args[0].args[0].attr == "__getitem__"]


def test_only_perms_composes_tuples():
    # perms.compose builds the tuple in C; a hand-written map would be a
    # second, slower kernel that its tests do not reach
    assert _tuple_maps_of_getitem(ast.parse(
        "x = tuple(map(a.__getitem__, b))\n"
        "y = f(tuple(map(rows[i].__getitem__, map(c.__getitem__, d))))")) \
        == [1, 2]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "perms.py"
             for line in _tuple_maps_of_getitem(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _repeated_blocks(sources) -> list:
    """file:line of every window of 4 consecutive stripped lines (no blank
    line, comment or docstring opener among them, 80+ characters in all)
    that occurs more than once in the sources."""
    where: dict = {}
    for path in sources:
        lines = [line.strip()
                 for line in path.read_text(encoding="utf-8").splitlines()]
        for i in range(len(lines) - 3):
            window = tuple(lines[i:i + 4])
            if all(line and not line.startswith(("#", '"""', "'''"))
                   for line in window) and sum(map(len, window)) >= 80:
                where.setdefault(window, []).append(f"{path.name}:{i + 1}")
    return sorted(place for places in where.values() if len(places) > 1
                  for place in places)


def test_no_repeated_code_block(tmp_path):
    # one helper per concept: a block of code written twice is a second
    # copy of a helper that should exist once
    block = ("if not config.has_point(ref):\n"
             "    raise DomainError('POINT_NOT_FOUND', str(ref))\n"
             "if ref in config.removed_points:\n"
             "    raise DomainError('OVERLAP_WITH_REMOVED', str(ref))\n")
    (tmp_path / "a.py").write_text("x = 1\n" + block)
    (tmp_path / "b.py").write_text(block.replace("\n", "\n    "))
    (tmp_path / "c.py").write_text(block.replace("str(ref)", "ref", 1))
    assert _repeated_blocks(sorted(tmp_path.glob("*.py"))) \
        == ["a.py:2", "b.py:1"]
    assert _repeated_blocks(sorted(PACKAGE.glob("*.py"))) == []
