"""The benchmark workloads: inputs from a seed, one timed iteration, output checks.

Each workload has ``setup()`` (input generation and warm-up, timed as
``setup_s``), ``prepare()`` (reference expectations, untimed) and
``iterate(tally, watch)``, which runs the timed calls through the stopwatch
``watch`` and checks every output through ``tally.check`` (outside the
timers, and outside the trace of a traced run).  The stopwatch's phases add
up to the iteration's time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference as ref
from stopwatch import Stopwatch

PACKAGE = "exitsim"
DEFAULT_SEED = 7

# exitsim's default topology, environment and search grids, fixed here so the
# generated inputs do not follow later changes to the program's defaults.
TOPOLOGY = {
    "N": 3, "P": 10, "segment_flops": [1.97, 56.98], "exit_flops": [16.7, 14.23],
    "server_flops": 274.13, "predictor_flops": 0.4, "raw_feature_bits": 262144,
    "compression_ratio": 64.0,
}
COMPUTE_SPEED = 3.62e9
LATENCY_BUDGET = 0.030
LAMBDA_GRID = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
GAMMA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
BANDWIDTHS = [1e5, 3e5, 5e5, 7e5, 1e6, 3e6, 5e6, 7e6, 1e7, 3e7, 5e7, 7e7, 1e8]
# Below 1e5 bit/s about a quarter of the synthetic samples offload at
# >= 137 ms each, so no grid point meets the 30 ms budget.
LOW_BANDWIDTHS = [1e4, 2e4, 3e4]
FRONTIER_LAMBDAS = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
GAMMA_STEP = 0.05
BUDGET_FRACTION = 0.02

SWEEP_SAMPLES = 2000
TRACE_SAMPLES = 50_000
FEATURE_DIM = 8
TRACE_LAMBDA = (0.6, 0.7)
TRACE_GAMMA = (0.3, 0.5)
HOLDOUT_FRACTION = 0.2

# A demo small enough to warm every code path in about a second.
WARMUP_CONFIG = {
    "synth": {"train_samples": 240, "test_samples": 120},
    "ee": {"train": {"epochs": 10, "lr_end_epoch": 10}},
    "ep": {"train": {"epochs": 10, "lr_end_epoch": 10}},
    "regressor": {"train": {"epochs": 100, "lr_end_epoch": 100}},
    "policy": {"frontier_lambdas": [0.5, 0.9], "lambda_grid": [0.3, 0.6, 0.9],
               "gamma_grid": [0.0, 0.5, 1.0], "gamma_step": 0.25},
    "sweep_bandwidths": [1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8],
}


class ProgramMissing(RuntimeError):
    """The checkout holds no exitsim sources to benchmark."""


def import_program(root: Path):
    """Import exitsim from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))
    es = importlib.import_module(PACKAGE)
    for module in ("cli", "engine", "nncore", "optimizer", "predictor", "trace", "zoo"):
        importlib.import_module(f"{PACKAGE}.{module}")
    if Path(es.__file__).resolve().parent != src / PACKAGE:
        raise ProgramMissing(f"{PACKAGE} imported from {es.__file__}, not from {src}")
    return es


class Tally:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Context the checks run in; a traced run pauses its tracer there.
        self.quiet = contextlib.nullcontext

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])

    def check(self, errors_of, *args) -> None:
        """Record the errors ``errors_of(*args)`` finds, computed under ``quiet``."""
        with self.quiet():
            errors = errors_of(*args)
        self.record(errors)


@contextlib.contextmanager
def captured_output():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


def synthetic_traces(rng: np.random.Generator, n: int, feature_dim: int = 0):
    """Trace columns plus fixed predictor scores, all drawn from ``rng``.

    Later exits are more confident and confident predictions are more often
    right, so accuracy, cost and offload share all move with the thresholds.
    Confidences are k / 1e9 with k in [1e8, 1e9) and features k / 1e6, so
    every stored real already has at most 9 significant digits.
    """
    p, n_exits = TOPOLOGY["P"], TOPOLOGY["N"]
    hardness = rng.random(n)
    z = np.arange(n_exits) - 4.0 * hardness[:, None] + rng.normal(0.0, 1.0, (n, n_exits))
    conf = 1.0 / p + (1.0 - 1.0 / p) / (1.0 + np.exp(-z))
    conf = np.clip(np.floor(conf * 1e9), 1e8, 1e9 - 1) / 1e9
    label = rng.integers(0, p, n)
    right = rng.random((n, n_exits)) < 0.3 + 0.65 * conf
    pred = np.where(right, label[:, None], (label[:, None] + rng.integers(1, p, (n, n_exits))) % p)
    noise = rng.normal(0.0, 1.0, (n, n_exits - 1))
    scores = 1.0 / (1.0 + np.exp(-(6.0 * (conf[:, :-1] - 0.5) + noise)))
    features = (rng.integers(-4_000_000, 4_000_001, (n, feature_dim)) / 1e6
                if feature_dim else None)
    arrays = ref.TraceArrays(dict(TOPOLOGY), np.arange(n), label, conf, pred, features)
    return arrays, scores


def write_trace_file(path: Path, a: ref.TraceArrays) -> None:
    """Write columns in exitsim's trace format: a header line, then one line per sample."""
    real = "{:.9g}".format

    def render(v) -> str:
        if isinstance(v, list):
            return "[" + ",".join(map(render, v)) + "]"
        return real(v) if isinstance(v, float) else str(v)

    header = ",".join(f'"{k}":{render(v)}' for k, v in a.header.items())
    conf = [",".join(map(real, row)) for row in a.conf.tolist()]
    pred = [",".join(map(str, row)) for row in a.pred.tolist()]
    feats = ([f',"features":[{",".join(map(real, row))}]}}' for row in a.features.tolist()]
             if a.features is not None else ["}"] * len(conf))
    with open(path, "w") as fh:
        fh.write("{" + header + "}\n")
        for i, label, c, p, f in zip(a.ids.tolist(), a.label.tolist(), conf, pred, feats):
            fh.write(f'{{"id":{i},"label":{label},"confidences":[{c}],"predicted":[{p}]{f}\n')


def trace_set(es, a: ref.TraceArrays):
    topo = es.trace.ExitTopology.from_header(a.header)
    return es.trace.TraceSet(topo, tuple(
        es.trace.SampleTrace(int(a.ids[i]), int(a.label[i]), a.conf[i], a.pred[i],
                             None if a.features is None else a.features[i])
        for i in range(len(a.ids))))


def array_errors(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    bad = np.flatnonzero((got != want).reshape(len(got), -1).any(axis=1))
    return [f"{what}: {len(bad)} rows differ, first at row {bad[0]}"] if len(bad) else []


# -- demo ---------------------------------------------------------------------

class Demo:
    """``exitsim demo`` at the default config, in process through ``cli.main``.

    ``config``, when given, replaces the default config of the timed demo;
    the benchmark's own tests use a small one.
    """

    def __init__(self, es, seed: int, workdir: Path, config: dict | None = None):
        self.es, self.seed, self.workdir, self.config = es, seed, workdir, config
        self.out = workdir / "demo"

    def setup(self) -> None:
        warm = self.workdir / "warmup"
        rc, err = self.run_demo(warm, self.seed, WARMUP_CONFIG)
        if rc != 0:
            raise RuntimeError(f"warm-up demo exited {rc}: {err}")
        shutil.rmtree(warm)

    def prepare(self) -> None:
        pass

    def run_demo(self, out: Path, seed: int, config: dict | None,
                 watch: Stopwatch | None = None) -> tuple[int, str]:
        shutil.rmtree(out, ignore_errors=True)
        argv = ["demo", "--out", str(out), "--seed", str(seed)]
        if config is not None:
            path = self.workdir / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        with captured_output() as (_, err):
            if watch is None:
                rc = self.es.cli.main(argv)
            else:
                rc = watch.time("demo", self.es.cli.main, argv)
        return rc, err.getvalue().strip()

    def iterate(self, tally: Tally, watch: Stopwatch) -> None:
        rc, err = self.run_demo(self.out, self.seed, self.config, watch)
        tally.check(self.errors, rc, err)

    def errors(self, rc: int, err: str) -> list[str]:
        if rc != 0:
            return [f"exitsim demo exited {rc}: {err}"]
        errs = []
        for path in sorted(self.out.iterdir()):
            try:
                self.es.cli.validate_artifact(str(path))
            except Exception as exc:  # any rejection is a failed check
                errs.append(f"{path.name}: {type(exc).__name__}: {exc}")
        summary = json.loads((self.out / "summary.json").read_text())
        env = json.loads((self.out / "config.json").read_text())["environment"]
        ep = json.loads((self.out / "ep.json").read_text())
        a = ref.read_trace_file(self.out / "traces_test.jsonl")
        costs = ref.Costs.from_header(a.header)
        scores = np.clip(ref.mlp_forward(ep["net"], a.features), 1e-12, 1.0 - 1e-12)
        lam, gamma = summary["lambda_star"], summary["gamma_star"]
        for name, kwargs in (("plain", {}), ("predictor", {"gamma": gamma, "scores": scores}),
                             ("oracle", {"oracle": True})):
            _, agg = ref.evaluate(a.conf, a.pred, a.label, costs, lam, **kwargs)
            errs += ref.report_errors(f"summary test.{name}", summary["test"][name], agg, costs,
                                      env["compute_speed"], env["bandwidth"],
                                      env["latency_budget"])
        return errs

    def artifact_digests(self) -> dict[str, str]:
        """sha256 of every artifact of a demo at the default seed."""
        if self.seed != DEFAULT_SEED or not self.out.is_dir():
            rc, err = self.run_demo(self.out, DEFAULT_SEED, self.config)
            if rc != 0:
                raise RuntimeError(f"exitsim demo exited {rc}: {err}")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.iterdir())}


# -- sweep --------------------------------------------------------------------


class Sweep:
    """Latency-constrained search over an in-memory trace set with fixed scores."""

    def __init__(self, es, seed: int, workdir: Path):
        self.es, self.seed = es, seed
        self.bandwidths = LOW_BANDWIDTHS + BANDWIDTHS

    def setup(self) -> None:
        es = self.es
        self.arrays, self.scores = synthetic_traces(np.random.default_rng([self.seed, 1]),
                                                    SWEEP_SAMPLES)
        self.ts = trace_set(es, self.arrays)
        self.env = es.engine.Environment(COMPUTE_SPEED, BANDWIDTHS[0], LATENCY_BUDGET)
        # Warm-up: one grid search at one bandwidth.  It also builds the set's
        # cached matrices, which belong to the in-memory input.
        es.optimizer.grid_search(self.ts, self.scores, self.env, LAMBDA_GRID, GAMMA_GRID)

    def prepare(self) -> None:
        a, costs = self.arrays, ref.Costs.from_header(TOPOLOGY)
        self.costs = costs
        self.table = ref.combo_table(a.conf, a.pred, a.label, costs, self.scores,
                                     LAMBDA_GRID, GAMMA_GRID)
        self.gamma_tables = {}
        for lam in FRONTIER_LAMBDAS:
            lam_vec = (lam,) * costs.n_early
            _, plain = ref.evaluate(a.conf, a.pred, a.label, costs, lam_vec)
            table = ref.combo_table(a.conf, a.pred, a.label, costs, self.scores, None,
                                    ref.gamma_values(GAMMA_STEP), lam_fixed=lam_vec)
            self.gamma_tables[lam] = (table, plain.exit_distribution[-1])

    @property
    def points_per_sweep(self) -> int:
        return len(self.table.keys) * len(self.bandwidths)

    def iterate(self, tally: Tally, watch: Stopwatch) -> None:
        es = self.es
        points = watch.time("sweep", es.optimizer.sweep_bandwidths, self.ts, self.scores,
                            self.env, self.bandwidths, LAMBDA_GRID, GAMMA_GRID)
        tally.check(self.sweep_errors, points)
        for lam in FRONTIER_LAMBDAS:
            gamma = watch.time("select", es.predictor.select_gamma, self.ts, self.scores,
                               (lam,) * self.costs.n_early, grid_step=GAMMA_STEP,
                               budget_fraction=BUDGET_FRACTION)
            table, plain_last = self.gamma_tables[lam]
            tally.check(ref.select_gamma_errors, table, plain_last, gamma, BUDGET_FRACTION)

    def sweep_errors(self, points) -> list[str]:
        want = sorted(self.bandwidths)
        got = [p.bandwidth for p in points]
        if got != want:
            return [f"sweep returned bandwidths {got}, expected {want}"]
        errs = []
        for p in points:
            errs += ref.sweep_point_errors(self.table, self.costs, COMPUTE_SPEED, LATENCY_BUDGET,
                                           p.bandwidth, p.lam, p.gamma, p.accuracy,
                                           p.mean_latency_s, p.feasible)
        return errs


# -- traces -------------------------------------------------------------------


class Traces:
    """Trace file I/O and per-sample policy evaluation at 50k samples."""

    def __init__(self, es, seed: int, workdir: Path):
        self.es, self.seed = es, seed
        self.path = workdir / "traces.jsonl"
        self.parts = (workdir / "traces_fit.jsonl", workdir / "traces_hold.jsonl")

    def setup(self) -> None:
        es = self.es
        rng = np.random.default_rng([self.seed, 2])
        self.arrays, self.scores = synthetic_traces(rng, TRACE_SAMPLES, FEATURE_DIM)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_trace_file(self.path, self.arrays)
        hidden, n_early = 16, TOPOLOGY["N"] - 1
        self.net = {
            "sizes": [FEATURE_DIM, hidden, n_early], "activations": ["relu", "sigmoid"],
            "layers": [{"w": rng.normal(0.0, 0.35, FEATURE_DIM * hidden).tolist(),
                        "b": rng.normal(0.0, 0.1, hidden).tolist()},
                       {"w": rng.normal(0.0, 0.25, hidden * n_early).tolist(),
                        "b": rng.normal(0.0, 0.1, n_early).tolist()}],
        }
        self.ep = es.predictor.ExitPredictor(es.nncore.Mlp.from_dict(self.net),
                                             lam=TRACE_LAMBDA,
                                             predictor_flops=TOPOLOGY["predictor_flops"])
        self.env = es.engine.Environment(COMPUTE_SPEED, 1e6, LATENCY_BUDGET)
        self.thresholds = es.trace.Thresholds(TRACE_LAMBDA, TRACE_GAMMA)

    def prepare(self) -> None:
        a = self.arrays
        self.costs = ref.Costs.from_header(TOPOLOGY)
        self.expected = {
            "plain": ref.evaluate(a.conf, a.pred, a.label, self.costs, TRACE_LAMBDA),
            "predictor": ref.evaluate(a.conf, a.pred, a.label, self.costs, TRACE_LAMBDA,
                                      TRACE_GAMMA, self.scores),
            "oracle": ref.evaluate(a.conf, a.pred, a.label, self.costs, TRACE_LAMBDA,
                                   oracle=True),
        }
        self.expected_scores = np.clip(ref.mlp_forward(self.net, a.features),
                                       1e-12, 1.0 - 1e-12)

    def iterate(self, tally: Tally, watch: Stopwatch) -> None:
        es = self.es
        ts = watch.time("load", es.trace.load_trace_set, self.path)
        # The loaded set is checked last: reading its matrices here would build
        # them outside the timed calls that build them in normal use.
        for name, fn, args in (
                ("plain", es.engine.run_plain, (ts, TRACE_LAMBDA, self.env)),
                ("predictor", es.engine.run_with_predictor,
                 (ts, self.thresholds, self.scores, self.env)),
                ("oracle", es.engine.run_oracle, (ts, TRACE_LAMBDA, self.env))):
            records, report = watch.time(name, fn, *args)
            tally.check(self.policy_errors, name, records, report)
            del records
        scores = watch.time("score", es.predictor.predict_scores, self.ep, ts)
        tally.check(self.score_errors, scores)
        fit, hold = watch.time("split", es.trace.split_trace_set, ts, HOLDOUT_FRACTION,
                               seed=self.seed)
        tally.check(self.split_errors, fit, hold)
        for part, path in zip((fit, hold), self.parts):
            watch.time("save", es.trace.save_trace_set, part, path)
            tally.check(self.saved_errors, path, [s.id for s in part.samples])
        tally.check(self.loaded_errors, ts)

    def policy_errors(self, name: str, records, report) -> list[str]:
        walk, agg = self.expected[name]
        errs = ref.report_errors(name, report.to_dict(), agg, self.costs, COMPUTE_SPEED,
                                 self.env.bandwidth, LATENCY_BUDGET)
        exit_taken = np.fromiter((r.exit_taken for r in records), dtype=np.int64,
                                 count=len(records))
        return errs + array_errors(f"{name} exit_taken", exit_taken, walk.exit_idx + 1)

    def score_errors(self, scores) -> list[str]:
        scores = np.asarray(scores)
        if scores.shape != self.expected_scores.shape:
            return [f"scores shape {scores.shape} != {self.expected_scores.shape}"]
        worst = float(np.max(np.abs(scores - self.expected_scores)))
        return [f"scores differ from the reference by {worst!r}"] if worst > 1e-12 else []

    def split_errors(self, fit, hold) -> list[str]:
        n = len(self.arrays.ids)
        fit_ids = np.array([s.id for s in fit.samples])
        hold_ids = np.array([s.id for s in hold.samples])
        errs = []
        if len(hold_ids) != max(1, round(n * HOLDOUT_FRACTION)):
            errs.append(f"held out {len(hold_ids)} of {n} samples")
        if not (np.all(np.diff(fit_ids) > 0) and np.all(np.diff(hold_ids) > 0)):
            errs.append("split parts do not keep the set order")
        if not np.array_equal(np.sort(np.concatenate([fit_ids, hold_ids])), self.arrays.ids):
            errs.append("split parts do not partition the set")
        return errs

    def saved_errors(self, path: Path, ids: list[int]) -> list[str]:
        got, a = ref.read_trace_file(path), self.arrays
        idx = np.asarray(ids, dtype=np.int64)
        if got.header != a.header:
            return [f"{path.name}: header {got.header} != {a.header}"]
        errs = array_errors(f"{path.name} ids", got.ids, a.ids[idx])
        if errs:
            return errs
        for col in ("label", "conf", "pred", "features"):
            errs += array_errors(f"{path.name} {col}", getattr(got, col), getattr(a, col)[idx])
        return errs

    def loaded_errors(self, ts) -> list[str]:
        a = self.arrays
        ids = np.array([s.id for s in ts.samples])
        errs = array_errors("loaded ids", ids, a.ids)
        for what, got, want in (("conf", ts.conf_matrix, a.conf), ("pred", ts.pred_matrix, a.pred),
                                ("label", ts.label_vector, a.label),
                                ("features", ts.feature_matrix, a.features)):
            errs += array_errors(f"loaded {what}", np.asarray(got), want)
        return errs


WORKLOADS = {"demo": Demo, "sweep": Sweep, "traces": Traces}
