"""The benchmark's tracer wraps the methods named in perfbench/layers.py by
name when it installs; a method deleted from lfqec makes every traced run
raise, so each name must resolve."""
import importlib
import pathlib
import runpy

import pytest

LAYERS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
METHODS = runpy.run_path(str(LAYERS_FILE))["METHODS"]


@pytest.mark.parametrize("spec", METHODS)
def test_traced_method_resolves(spec):
    layer, cls_name, meth = spec.split(".")
    cls = getattr(importlib.import_module(f"lfqec.{layer}"), cls_name)
    assert callable(getattr(cls, meth))
