"""Repository tooling checks: the example-input generator still writes the
shipped data/ files, byte for byte (every tracked out/small artifact and every
benchmark workload reads them), every exported name exists, and every exported
name has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import hemsflex

REPO = Path(__file__).resolve().parent.parent


def test_make_example_inputs_reproduces_data(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_example_inputs", REPO / "tools" / "make_example_inputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "DATA", tmp_path)
    tool.main()
    for name in ("marginals_96.csv", "draws_96.csv", "hems.json"):
        assert (tmp_path / name).read_bytes() == (REPO / "data" / name).read_bytes(), name


def _modules():
    # __main__ runs the CLI on import, and exports nothing.
    names = [f"hemsflex.{m.name}" for m in pkgutil.iter_modules(hemsflex.__path__) if m.name != "__main__"]
    return [hemsflex] + [importlib.import_module(name) for name in names]


def _reads(path: Path) -> set[str]:
    """Names a module reads, as bare names or attributes. A top-level
    definition's reads of its own name do not count, and `__all__` entries
    are strings, so they never do."""
    reads = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        reads.discard(own)
    return reads


def test_every_all_name_resolves():
    for module in _modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_all_name_has_a_non_test_caller():
    # A public name that only tests reach is a second API to keep in step;
    # perfbench names its traced targets as strings, so it is searched as text.
    src = set().union(*(_reads(path) for path in (REPO / "src" / "hemsflex").glob("*.py")))
    text = "\n".join(path.read_text() for folder in ("tools", "perfbench") for path in (REPO / folder).rglob("*.py"))
    unused = [
        f"{module.__name__}.{name}" for module in _modules() for name in getattr(module, "__all__", ())
        if name not in src and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not unused
