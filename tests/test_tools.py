"""The example-input generator still writes the shipped data/ files, byte for
byte: every tracked out/small artifact and every benchmark workload reads them."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_make_example_inputs_reproduces_data(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_example_inputs", REPO / "tools" / "make_example_inputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "DATA", tmp_path)
    tool.main()
    for name in ("marginals_96.csv", "draws_96.csv", "hems.json"):
        assert (tmp_path / name).read_bytes() == (REPO / "data" / name).read_bytes(), name
