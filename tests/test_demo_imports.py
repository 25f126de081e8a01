"""The demos import only names the package still has (checked without running them)."""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
