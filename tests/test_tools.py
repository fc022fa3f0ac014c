"""Repository tooling checks: the example-input generator still writes the
shipped data/ files, byte for byte (every tracked out/small artifact and every
benchmark workload reads them), and every exported name exists."""

import importlib
import importlib.util
import pkgutil
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


def test_every_all_name_resolves():
    # __main__ runs the CLI on import, and exports nothing.
    names = [f"hemsflex.{m.name}" for m in pkgutil.iter_modules(hemsflex.__path__) if m.name != "__main__"]
    for module in [hemsflex] + [importlib.import_module(name) for name in names]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
