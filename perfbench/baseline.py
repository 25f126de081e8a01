"""Run the benchmark command over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--first-seed 1] [--out perfbench/baseline.json]
    python3 perfbench/baseline.py --record-artifacts

Each run is ``<command> --workload W --seed S --seconds <run_seconds> --trace 0``
from BENCHMARK.json, one at a time, from the checkout root: ten seeds from
``--first-seed`` on every workload of BENCHMARK.json.  For every
end-to-end metric the summary holds the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance over the median.  A spread at or above a third of the metric's
bound is flagged, and makes the exit status 1.

``--record-artifacts`` instead runs one traced demo at the default seed and
stores the sha256 of its artifacts in perfbench/demo_sha256.json, the
record that ``demo.artifacts_moved`` compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def host() -> dict:
    import numpy
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def program_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record-artifacts", action="store_true")
    args = parser.parse_args(argv)

    if args.record_artifacts:
        sys.path.insert(0, str(HERE))
        from workloads import DEFAULT_SEED
        run_once(bench, "demo", DEFAULT_SEED, 1, trace=1)
        shutil.copyfile(ROOT / ".perfbench" / "demo_sha256.json", HERE / "demo_sha256.json")
        print(f"wrote {HERE / 'demo_sha256.json'}")
        return 0

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"program_commit": program_commit(), "host": host(),
               "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in seeds:
            result = run_once(bench, workload, seed, bench["run_seconds"], trace=0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds), file=sys.stderr, flush=True)
        stats = {m: summarise(v, bounds[m]) for m, v in values.items()}
        summary["workloads"][workload] = stats
        for m, s in stats.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"{workload:8s} {m:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
