"""The benchmark's hook points still exist in the library.

``perfbench/layers.py`` names the entry points the benchmark traces and the
arguments its work counters read. A renamed function or parameter would
only show up as a missing entry point or a counter error in a benchmark
run, so this test reads that file (without importing it, so nothing is
written next to it) and checks the names against the library.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from balrig.exactla import GenericMatrix
from balrig.rigidity import build_M, build_rigidity_matrix

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers() -> dict:
    namespace: dict = {}
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), namespace)
    return namespace


def _targets():
    namespace = _layers()
    return sorted(
        target
        for layers in (namespace["CALL_LAYERS"], namespace["SETUP_LAYERS"])
        for entries in layers.values()
        for target, _counter in entries
    )


@pytest.mark.parametrize("target", _targets())
def test_traced_entry_point_resolves(target):
    module_name, *path = target.split(".")
    module = importlib.import_module(f"balrig.{module_name}")
    if len(path) == 2:
        cls = getattr(module, path[0])
        assert path[1] in vars(cls), f"{target} is not defined on the class"
    else:
        assert callable(getattr(module, path[0], None)), f"{target} is missing"


def test_counters_find_the_arguments_and_attributes_they_read():
    assert {"g", "k", "l", "theta"} <= set(inspect.signature(build_rigidity_matrix).parameters)
    assert {"kx", "l", "theta"} <= set(inspect.signature(build_M).parameters)
    for name in ("rows", "n_rows", "n_cols"):
        assert hasattr(GenericMatrix, name)
