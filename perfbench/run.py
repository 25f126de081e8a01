"""Run one exitsim benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {demo,sweep,traces} --seed N \
        --seconds S --trace {0,1}

Run from the root of an exitsim checkout; the program is imported from
``src/exitsim`` there.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files go to ``.perfbench/`` in the checkout; a traced run leaves
its spans there.
"""

import os

# One BLAS thread, set before numpy loads, so timings compare across machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from stopwatch import REFERENCE_CAL_S, Stopwatch, reference_seconds  # noqa: E402
from tracing import Tracer, installed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
ARTIFACT_RECORD = HERE / "demo_sha256.json"


def measure(seconds: float, tally, step) -> None:
    """Call ``step()`` until ``seconds`` have passed or an operation raised.

    Each step starts from a collected heap, so garbage left by the previous
    one is not charged to it.
    """
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        gc.collect()
        try:
            step()
        except Exception as exc:  # the program raised: count it and stop
            tally.failed += 1
            tally.attempted += 1
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            return


def best(iterations: list[dict[str, tuple[float, float]]], phases=None) -> float:
    """Sum over ``phases`` (default: all) of the shortest wall time each took."""
    return sum(min(it[p][0] for it in iterations) for p in phases or iterations[0])


def untraced_metrics(workload, seconds: float, tally) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; times in reference seconds (see stopwatch.py)."""
    watch = Stopwatch()
    setups = []
    for _ in range(SETUP_REPEATS):
        watch.time("setup", workload.setup)
        setups.append(watch.lap()["setup"][1] * REFERENCE_CAL_S)
    workload.prepare()
    iterations = []

    def step() -> None:
        workload.iterate(tally, watch)
        iterations.append(watch.lap())

    measure(seconds, tally, step)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    if iterations:
        metrics["primary_s"] = (reference_seconds(iterations), "s")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src" / workloads.PACKAGE).rglob("*.py")))


def traced_iteration(workload, tracer: Tracer, tally, watch: Stopwatch) -> None:
    """One iteration under a fresh trace; its output checks leave no spans."""
    tracer.reset()
    tally.quiet = tracer.pause
    try:
        with installed(tracer, workloads.PACKAGE, layers.TARGETS):
            workload.iterate(tally, watch)
    finally:
        tally.quiet = contextlib.nullcontext


def traced_metrics(workload, name: str, seconds: float, tally, outdir: Path
                   ) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced iterations; per-layer metrics from both.

    Both are timed in wall seconds without calibration, so that no
    calibration lands inside a span.
    """
    start = time.perf_counter()
    workload.setup()
    setup_seconds = time.perf_counter() - start
    workload.prepare()
    tracer, watch = Tracer(), Stopwatch(calibrated=False)
    plain, traced, per_iteration, spans = [], [], [], []

    def pair() -> None:
        workload.iterate(tally, watch)
        plain.append(watch.lap())
        traced_iteration(workload, tracer, tally, watch)
        traced.append(watch.lap())
        per_iteration.append(layers.iteration_metrics(tracer))
        spans.append(tracer.spans)

    measure(seconds, tally, pair)
    units = {m: u for m, u, _ in layers.per_layer_spec()}
    values = {m: 0.0 for m in units}
    if per_iteration:
        values.update({m: statistics.median(it[m] for it in per_iteration)
                       for m in per_iteration[0]})
    values["wall.setup_s"] = setup_seconds
    if plain and traced:
        values["wall.primary_s"] = statistics.median(
            sum(s for s, _ in it.values()) for it in plain)
        values["tracing.overhead_frac"] = best(traced) / best(plain) - 1.0
        if name == "sweep":
            values["sweep_points_per_s"] = workload.points_per_sweep / best(plain, ["sweep"])
        if name == "traces":
            n = workloads.TRACE_SAMPLES
            values["trace_load_samples_per_s"] = n / best(plain, ["load"])
            values["trace_save_samples_per_s"] = n / best(plain, ["save"])
            values["eval_samples_per_s"] = 3 * n / best(plain, ["plain", "predictor", "oracle"])
    values["src.lines"] = src_lines()
    values["tracing.targets_missing"] = len(tracer.missing)
    for target in tracer.missing:
        print(f"perfbench: {target} not found; its metrics read 0", file=sys.stderr)
    if name == "demo" and not tally.failed:
        digests = workload.artifact_digests()
        (outdir / "demo_sha256.json").write_text(json.dumps(
            {"seed": workloads.DEFAULT_SEED, "sha256": digests}, indent=1) + "\n")
        recorded = (json.loads(ARTIFACT_RECORD.read_text())["sha256"]
                    if ARTIFACT_RECORD.exists() else {})
        values["demo.artifacts_moved"] = sum(
            digests.get(f) != recorded.get(f) for f in set(digests) | set(recorded))
    with open(outdir / f"spans-{name}.jsonl", "w") as fh:
        for i, iteration in enumerate(spans):
            for s in iteration:
                fh.write(json.dumps({"iteration": i, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3]}) + "\n")
    return {m: (v, units[m]) for m, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        es = workloads.import_program(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    workdir = outdir / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](es, args.seed, workdir)
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics = traced_metrics(workload, args.workload, args.seconds, tally, outdir)
        else:
            metrics = untraced_metrics(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in tally.errors[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
