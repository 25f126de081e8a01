"""The demos and the benchmark use only names the package still has (checked
without running them), and the run results the benchmark reads keep their
shape (checked by running them on a small set)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import exitsim
from exitsim import (Environment, ExitPredictor, Mlp, Thresholds, run_oracle, run_plain,
                     run_with_predictor)

from helpers import (literal_oracle_walk, literal_plain_walk, literal_predictor_walk,
                     random_trace_set, small_topology_like)

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


def test_the_runtime_interface_the_benchmark_reads_holds():
    """What ``perfbench/workloads.py`` and ``perfbench/selftest.py`` read off
    a run, on a small set: one record per sample, integer exits, tuples of
    computed exits (a selftest compares them with ``==`` to lists of tuples),
    samples exposing ``.id`` and the predictor's keyword constructor."""
    rng = np.random.default_rng(11)
    ts = random_trace_set(rng, small_topology_like(), n_samples=40)
    n_early = ts.topology.num_early_exits
    lam, gamma = (0.6,) * n_early, (0.4,) * n_early
    scores = rng.random((len(ts), n_early))
    env = Environment(3.62e9, 1e6, 0.03)
    walks = [
        (run_plain(ts, lam, env), lambda i: literal_plain_walk(ts.conf[i], lam, ts.topology)),
        (run_with_predictor(ts, Thresholds(lam, gamma), scores, env),
         lambda i: literal_predictor_walk(ts.conf[i], scores[i], lam, gamma, ts.topology)),
        (run_oracle(ts, lam, env), lambda i: literal_oracle_walk(ts.conf[i], lam, ts.topology)),
    ]
    for (records, _), walk in walks:
        assert len(records) == len(ts)
        assert all(type(r.exit_taken) is int for r in records)
        assert [r.exit_taken for r in records] == [walk(i)[0] for i in range(len(ts))]
        assert [r.exits_computed for r in records] == [
            tuple(n in walk(i)[2] for n in range(n_early)) for i in range(len(ts))]
    assert [s.id for s in ts.samples] == ts.ids.tolist()
    net = Mlp.init([2, 4, n_early], ["relu", "sigmoid"], seed=0)
    ep = ExitPredictor(net, lam=lam, predictor_flops=ts.topology.predictor_flops)
    assert ep.lam == lam
