"""Every ``treehopf`` name the benchmark imports still resolves.

``perfbench/baseline.py`` imports inside its functions, which no test
calls, so a removed library name would otherwise go unnoticed there.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def treehopf_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treehopf":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "treehopf")


IMPORTS = list(treehopf_imports())


@pytest.mark.parametrize("source, module, name", IMPORTS)
def test_benchmark_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, or ModuleNotFoundError
