"""Self-test of the benchmark, at tiny size (64x64 scenes, one-iteration nets).

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced and a traced
run print every metric BENCHMARK.json names, with its unit; that the full
record holds every end-to-end figure the workload reports; that the traced
spans nest (each parent exists, children lie inside their parent, no self
time is negative); that no operation fails; and that two runs with one seed
leave outputs with one digest. Exits 1 and lists the problems if any check
fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import FIGURES, REPORTED, WORK  # noqa: E402
from spans import check_nesting  # noqa: E402


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check_workload(bench, name):
    problems = []
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (0, None)):
        result, record = run(name, trace)
        where = f"{name} trace {trace}"
        if key is not None:
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} missing, "
                                f"extra or with another unit")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys are {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: {result['failed']}/{result['attempted']} operations "
                            f"failed: {record['problems']}")
        figures = {k: v["unit"] for k, v in record["metrics"].items()}
        if figures != {k: FIGURES[k] for k in REPORTED[name]}:
            problems.append(f"{where}: record figures are {sorted(figures)}")
        elif record["metrics"]["fail_rate"]["value"] != 0:
            problems.append(f"{where}: fail_rate is {record['metrics']['fail_rate']['value']}")
        if trace:
            spans = json.loads((WORK / name / "spans.json").read_text())
            if not spans:
                problems.append(f"{where}: no spans recorded")
            problems += [f"{where}: {p}" for p in check_nesting(spans)]
        else:
            digests.append(record["digest"])
    if len(set(digests)) != 1:
        problems.append(f"{name}: two runs with one seed left different outputs")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench["workloads"]:
        found = check_workload(bench, workload["name"])
        print(f"{workload['name']}: {'ok' if not found else f'{len(found)} problems'}")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
