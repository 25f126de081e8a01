"""The demos and the benchmark use only names the package still has (checked
without running them)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import exitsim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_every_name_a_demo_imports_from_exitsim_exists():
    assert DEMOS
    missing = []
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "exitsim":
                module = importlib.import_module(node.module)
                missing += [f"{demo.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "exitsim":
                        importlib.import_module(alias.name)
    assert missing == []


def _program_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """Every attribute chain read off the program, ``es.<...>`` or ``self.es.<...>``."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["es"]:
            names.pop(0)
        elif not (isinstance(node, ast.Name) and node.id == "es"):
            continue
        if names:
            chains.add(tuple(names))
    return chains


def test_every_program_name_the_benchmark_uses_exists():
    for info in pkgutil.iter_modules(exitsim.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"exitsim.{info.name}")
    chains = _program_chains(ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS)))
    assert ("trace", "load_trace_set") in chains and ("cli", "main") in chains
    missing = []
    for chain in sorted(chains):
        obj = exitsim
        for name in chain:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(".".join(chain))
    assert missing == []
