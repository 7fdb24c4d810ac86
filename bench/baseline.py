"""Measure a baseline and write it as JSON.

    python3 bench/baseline.py [--out bench/baseline.json]

For every workload in BENCHMARK.json: RUNS untraced runs, each with its own
seed (1, 2, ...), then one traced run with seed 1. Writes, per workload, the
median, quartiles and quartile spread (Q3 - Q1 over the median) of every
gated metric and the medians of every other end-to-end figure, each run's
values and digest, the traced run's per-layer metrics, and the machine
record. Takes about (RUNS + 1) x run_seconds per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summary(values):
    values = [v for v in values if v is not None]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            result, record = run(workload, seed, seconds, 0)
            runs.append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "pass_s": record["pass_s"], "digest": record["digest"],
                "setup_times": record["setup_times"],
                "figures": {k: v["value"] for k, v in record["metrics"].items()},
                "cli_s": record["cli_s"],
            })
            out["machine"] = record["machine"]
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1]["figures"].items()
                                   if v is not None}, flush=True)
        traced, _ = run(workload, 1, seconds, 1)
        figures = sorted({k for r in runs for k in r["figures"]})
        gated = [m["name"] for m in bench["end_to_end"]]
        out["workloads"][workload] = {
            "gated": {k: summary([r["figures"][k] for r in runs]) for k in gated},
            "figures": {k: statistics.median(r["figures"][k] for r in runs
                                             if r["figures"][k] is not None)
                        for k in figures if k not in gated},
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        for k, s in out["workloads"][workload]["gated"].items():
            print(f"{workload} {k}: median {s['median']:.4g} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
