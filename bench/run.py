"""Benchmark of the reldepth pipeline, driven only through reldepth.cli.main.

    python3 bench/run.py --workload desk_pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ./src). Each run
is one process and a closed loop with one client: the workload's command
sequence (a pass) runs again and again, each command starting when the one
before it returns, until another pass would overrun --seconds. Inputs come
from --seed, which every command receives as its --seed; holdout sets use
seed + HOLDOUT_OFFSET. After the loop every pass's outputs are checked and
hashed; passes of one run share a seed, so their digests must agree.

--trace 0 measures the end-to-end metrics. --trace 1 follows each command
with a replay through the public functions of the layers it drives (see
replay.py) and reports the per-layer metrics (see layers.py).

The last stdout line is one JSON object: correct, attempted, failed and the
metrics. The line before it holds the full record: every metric of the
workload with its unit, per-command times, quality figures, digests and the
machine. A traced run also writes its spans to .bench_work/<workload>/spans.json.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
HOLDOUT_OFFSET = 5000
# set-ups per run, spread over the run's window so that setup_s, their
# median, sees the machine's speed over the whole window as wall_s does
SETUP_SAMPLES = 20
TRAIN_ITERATIONS = 6
# matched disparities off by more than 1 on this share of valid pixels mean
# stereo is broken; desk-size scenes stay near 0.02, tiny ones reach 0.2
MAX_STEREO_BAD1 = 0.1

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
FIGURES = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_rate": "1",
    "train_img_per_s": "img/s", "stereo_scenes_per_s": "scenes/s", "rank_pairs_per_s": "pairs/s",
    "delta1": "1", "whdr": "1", "stereo_bad1": "1",
}
_COMMON = ("wall_s", "setup_s", "peak_rss_mb", "fail_rate")
REPORTED = {
    "desk_pipeline": _COMMON + ("train_img_per_s", "delta1", "whdr", "stereo_bad1"),
    "stereo_label": _COMMON + ("stereo_scenes_per_s", "stereo_bad1"),
    "ordinal_dense": _COMMON + ("train_img_per_s", "rank_pairs_per_s", "whdr"),
}


def workload_config(name, tiny):
    """The workload's config: configs/desk.json with its overrides."""
    cfg = json.loads((ROOT / "configs" / "desk.json").read_text())
    train = cfg["train"]
    iterations = 1 if tiny else TRAIN_ITERATIONS
    for phase in ("pretrain", "finetune"):
        train[phase].update(total_iterations=iterations, decay_iterations=[])
    if name == "stereo_label":
        cfg["synth"].update(count=4, width=256, height=256,
                            disparity_choices=[3, 15, 27, 39], d_max=48)
        cfg["sgm"]["d_max"] = 48
    elif name == "ordinal_dense":
        # three layers in every scene keep the share of equal pairs, which
        # the ranking loss and whdr cost depends on, steady across seeds
        cfg["synth"]["layers_min"] = 3
        cfg["pairs"]["count"] = 10000
        train["net"].update(stage_widths=[4, 8, 16], head_widths=[16, 8])
    if tiny:
        cfg["synth"].update(count=2, width=64, height=64, disparity_choices=[1, 5, 9, 13],
                            d_max=16, layers_min=3, layers_max=3)
        cfg["sgm"]["d_max"] = 16
        cfg["pairs"]["count"] = min(cfg["pairs"]["count"], 200)
        train["net"].update(stage_widths=[2, 3, 4], head_widths=[4, 3])
    return cfg


def plan(name, dirs, seed):
    """(set-up commands, pass commands) as (command, flags) lists."""
    hold = seed + HOLDOUT_OFFSET
    inp, out = dirs["input"], dirs["out"]

    def cmd(command, s=seed, **flags):
        return command, {"--seed": str(s), **{f"--{k}": str(v) for k, v in flags.items()}}

    if name == "desk_pipeline":
        return [], [
            cmd("synth", out=out / "train"),
            cmd("stereo", **{"in": out / "train"}, out=out / "disp"),
            cmd("pairs", **{"in": out / "disp"}, out=out / "pairs"),
            cmd("pretrain", data=out / "train", pairs=out / "pairs", out=out / "pre"),
            cmd("finetune", data=out / "train", out=out / "fine",
                resume=out / "pre" / "model.ckpt"),
            cmd("eval", data=out / "train", out=out / "eval", ckpt=out / "fine" / "model.ckpt"),
            cmd("synth", hold, out=out / "holdout"),
            cmd("stereo", hold, **{"in": out / "holdout"}, out=out / "hdisp"),
            cmd("pairs", hold, **{"in": out / "hdisp"}, out=out / "hpairs"),
            cmd("whdr", data=out / "holdout", pairs=out / "hpairs",
                ckpt=out / "pre" / "model.ckpt", out=out / "whdr"),
        ]
    if name == "stereo_label":
        return [cmd("synth", out=inp / "train")], [
            cmd("stereo", **{"in": inp / "train"}, out=out / "disp"),
            cmd("pairs", **{"in": out / "disp"}, out=out / "pairs"),
        ]
    return [cmd("synth", out=inp / "train"), cmd("synth", hold, out=inp / "holdout")], [
        cmd("pairs", **{"in": inp / "train"}, out=out / "pairs"),
        cmd("pretrain", data=inp / "train", pairs=out / "pairs", out=out / "pre"),
        cmd("pairs", hold, **{"in": inp / "holdout"}, out=out / "hpairs"),
        cmd("whdr", data=inp / "holdout", pairs=out / "hpairs",
            ckpt=out / "pre" / "model.ckpt", out=out / "whdr"),
    ]


# ---- running commands -------------------------------------------------------------


def run_command(main, command, flags, config):
    """One CLI call; returns (exit code, seconds). Output is captured and shown
    only when the command fails."""
    argv = [command, "--config", str(config)]
    for flag, value in flags.items():
        argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is one failed operation; the run goes on
        code = -1
        err.write(traceback.format_exc())
    took = time.perf_counter() - start
    if code != 0:
        print(f"{command} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, took


def run_pass(main, commands, config, tracer=None, replayer=None):
    """Run every command once; the traced run follows each with its replay.
    The traced run empties the garbage before a command and before its replay,
    so that neither pays for a full collection of the other's garbage."""
    results = []
    for command, flags in commands:
        if tracer is None:
            results.append((command, flags) + run_command(main, command, flags, config))
            continue
        gc.collect()
        with tracer.span(f"cli.{command}"):
            code, took = run_command(main, command, flags, config)
        results.append((command, flags, code, took))
        if code == 0:
            gc.collect()
            replayer.run(command, {"--config": str(config), **flags})
    return results


# ---- output checks --------------------------------------------------------------


def tree_digest(root):
    """SHA-256 over relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Checker:
    """Counts operations and failures: every command, every manifest scene
    entry and every output check is one operation."""

    def __init__(self, rd, cfg, max_bad1):
        self.rd = rd
        self.cfg = cfg
        self.max_bad1 = max_bad1
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.quality = {}

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def manifest(self, dirpath):
        try:
            manifest = json.loads((Path(dirpath) / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            self.expect(False, f"{dirpath}: manifest unreadable: {exc}")
            return {"scenes": []}
        failures = manifest.get("failures", [])
        self.attempted += len(manifest["scenes"]) + len(failures)
        self.failed += len(failures)
        self.problems += [f"{dirpath}: scene failed: {f}" for f in failures]
        return manifest

    def check_pass(self, results):
        rd = self.rd
        bad1, gt_pixels = [0, 0], {}
        equal_pairs, total_pairs, nonequal = 0, 0, {}
        for command, flags, code, _ in results:
            self.expect(code == 0, f"{command} exited {code}")
            if code != 0:
                continue
            out = Path(flags["--out"])
            if command == "synth":
                gt_pixels[flags["--out"]] = 0
                for scene in self.manifest(out)["scenes"]:
                    gt = rd.load_pfm(out / scene["gt"], kind=rd.DISPARITY)
                    gt_pixels[flags["--out"]] += int((gt.mask & (gt.values > 0)).sum())
            elif command == "stereo":
                src = Path(flags["--in"])
                gts = {s["index"]: s["gt"]
                       for s in json.loads((src / "manifest.json").read_text())["scenes"]}
                for scene in self.manifest(out)["scenes"]:
                    try:
                        disp = rd.load_pfm(out / scene["disparity"], kind=rd.DISPARITY)
                        gt = rd.load_pfm(src / gts[scene["index"]], kind=rd.DISPARITY)
                    except (OSError, ValueError) as exc:
                        self.expect(False, f"{out}: {exc}")
                        continue
                    if not self.expect(disp.values.shape == gt.values.shape,
                                       f"{out}: disparity shape differs from input"):
                        continue
                    wrong = gt.mask & (~disp.mask | (abs(disp.values - gt.values) > 1.0))
                    bad1[0] += int(wrong.sum())
                    bad1[1] += int(gt.mask.sum())
            elif command == "pairs":
                e, t, n = self._check_pairs(Path(flags["--in"]), out)
                equal_pairs, total_pairs = equal_pairs + e, total_pairs + t
                nonequal[str(out)] = n
            elif command in ("pretrain", "finetune"):
                self._check_checkpoint(out / "model.ckpt", command)
            elif command == "eval":
                try:
                    agg = json.loads((out / "metrics.json").read_text())["aggregate"]
                    # eval pools every jointly valid pixel of positive depth
                    ok = (0.0 <= agg["delta1"] <= 1.0
                          and agg["pixel_count"] == gt_pixels.get(flags["--data"]))
                    self.quality["delta1"] = agg["delta1"]
                except (OSError, ValueError, KeyError) as exc:
                    ok = False
                    print(f"metrics.json: {exc}", file=sys.stderr)
                self.expect(ok, f"{out}/metrics.json missing, out of range or miscounted")
            elif command == "whdr":
                try:
                    doc = json.loads((out / "whdr.json").read_text())
                    scored = sum(s["pair_count"] for s in doc["per_scene"])
                    ok = (0.0 <= doc["whdr"] <= 1.0
                          and scored == nonequal.get(flags["--pairs"], -1))
                    self.quality["whdr"] = doc["whdr"]
                except (OSError, ValueError, KeyError) as exc:
                    ok = False
                    print(f"whdr.json: {exc}", file=sys.stderr)
                self.expect(ok, f"{out}/whdr.json missing, out of range or miscounted")
        if bad1[1]:
            self.quality["stereo_bad1"] = bad1[0] / bad1[1]
            if self.max_bad1 is not None:
                self.expect(bad1[0] <= self.max_bad1 * bad1[1],
                            f"stereo_bad1 {bad1[0] / bad1[1]:.4f} above {self.max_bad1}")
        if total_pairs:
            self.quality["equal_frac"] = equal_pairs / total_pairs

    def _check_pairs(self, src, out):
        """Every stored relation must follow from the source disparity map."""
        np = self.rd.np
        maps = {s["index"]: s.get("disparity", s.get("gt"))
                for s in json.loads((src / "manifest.json").read_text())["scenes"]}
        threshold = self.cfg["pairs"]["eq_threshold"]
        equal = total = nonequal = 0
        for scene in self.manifest(out)["scenes"]:
            try:
                disp = self.rd.load_pfm(src / maps[scene["index"]], kind=self.rd.DISPARITY)
                rows = np.loadtxt(out / scene["pairs"], delimiter=",", dtype=np.int64, ndmin=2)
                vi = disp.values[rows[:, 0], rows[:, 1]].astype(np.float64)
                vj = disp.values[rows[:, 2], rows[:, 3]].astype(np.float64)
                ok = (len(rows) == self.cfg["pairs"]["count"]
                      and disp.mask[rows[:, 0], rows[:, 1]].all()
                      and disp.mask[rows[:, 2], rows[:, 3]].all())
            except (OSError, ValueError, IndexError) as exc:
                self.expect(False, f"{out / scene['pairs']}: {exc}")
                continue
            want = np.where(np.abs(vi - vj) <= threshold, 0, np.where(vi > vj, 1, -1))
            ok = ok and np.array_equal(want, rows[:, 4])
            self.expect(ok, f"{out / scene['pairs']}: relations disagree with the map")
            equal += int((rows[:, 4] == 0).sum())
            nonequal += int((rows[:, 4] != 0).sum())
            total += len(rows)
        return equal, total, nonequal

    def _check_checkpoint(self, path, command):
        try:
            net, iteration = self.rd.load_checkpoint(path)
            mode = "ranking" if command == "pretrain" else "classification"
            ok = (iteration == self.cfg["train"][command]["total_iterations"]
                  and net.config.head_mode == mode)
        except (OSError, ValueError) as exc:
            ok = False
            print(f"{path}: {exc}", file=sys.stderr)
        self.expect(ok, f"{path} does not load as a {command} checkpoint")


# ---- machine record ---------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record(np):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env_threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": (int(next(iter(env_threads.values()))) if env_threads
                        else len(os.sched_getaffinity(0))),
            "threads_source": env_threads or "OpenBLAS default (one per available core)",
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git when there is one."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


# ---- the run ----------------------------------------------------------------------


class _Reldepth:
    """The reldepth names the benchmark needs, imported afresh from ./src."""

    def __init__(self):
        for module in [m for m in sys.modules if m.split(".")[0] == "reldepth"]:
            del sys.modules[module]
        import numpy
        import reldepth
        from reldepth import cli
        from reldepth.imagery import DISPARITY, load_pfm
        from reldepth.network import load_checkpoint

        if Path(reldepth.__file__).resolve().parent != (ROOT / "src" / "reldepth").resolve():
            raise ImportError(f"reldepth imported from {reldepth.__file__}, not ./src")
        self.np, self.cli, self.main = numpy, cli, cli.main
        self.DISPARITY, self.load_pfm, self.load_checkpoint = DISPARITY, load_pfm, load_checkpoint


def _median(values):
    return statistics.median(values) if values else 0.0


def setup(name, args, base, rep):
    """One set-up: a fresh import of reldepth, the config written and parsed,
    and the workload's inputs made under setup<rep>. Returns the import, the
    seconds taken, the config path, the directories and the command results."""
    dirs = {"input": base / f"setup{rep}", "out": base / "pass0"}
    config = base / "config.json"
    start = time.perf_counter()
    rd = _Reldepth()
    config.write_text(json.dumps(workload_config(name, args.tiny)))
    rd.cli.load_config(config, args.seed)
    made = [(c, f) + run_command(rd.main, c, f, config)
            for c, f in plan(name, dirs, args.seed)[0]]
    return rd, time.perf_counter() - start, config, dirs, made


def measure(name, args, base):
    """Set up, then run passes until the window is spent. An untraced run
    sets up again after each pass, about SETUP_SAMPLES times in all; the
    passes use the first set-up's import and inputs."""
    rd, took, config, dirs, setup_results = setup(name, args, base, 0)
    setup_times, extra_setups = [took], []
    tracer = replayer = None
    if args.trace:
        from replay import Replayer
        from spans import SETUP_TRACE, Tracer
        tracer = Tracer()
        replayer = Replayer(tracer, rd.cli.load_config, base / "replay")
        tracer.trace_id = SETUP_TRACE
        setup_results = run_pass(rd.main, plan(name, dirs, args.seed)[0], config,
                                 tracer, replayer)

    passes, window = [], time.perf_counter()
    while True:
        dirs["out"] = base / f"pass{len(passes)}"
        if tracer is not None:
            tracer.trace_id = len(passes)
        commands = plan(name, dirs, args.seed)[1]
        start = time.perf_counter()
        results = run_pass(rd.main, commands, config, tracer, replayer)
        passes.append((time.perf_counter() - start, dirs["out"], results))
        if tracer is None:
            for _ in range(max(1, round(SETUP_SAMPLES * passes[-1][0] / args.seconds))):
                _, took, _, extra, made = setup(name, args, base, len(setup_times))
                setup_times.append(took)
                extra_setups.append((extra["input"], made))
        elapsed = time.perf_counter() - window
        if elapsed + passes[-1][0] > args.seconds:
            break

    cfg = workload_config(name, args.tiny)
    checker = Checker(rd, cfg, None if args.tiny else MAX_STEREO_BAD1)
    checker.check_pass(setup_results)
    inputs = tree_digest(dirs["input"])
    for k, (extra, made) in enumerate(extra_setups, 1):
        for command, _, code, _ in made:
            checker.expect(code == 0, f"set-up {k}: {command} exited {code}")
        checker.expect(tree_digest(extra) == inputs, f"set-up {k} inputs differ from set-up 0")
        shutil.rmtree(extra, ignore_errors=True)
    for problem in replayer.problems if replayer else []:
        checker.expect(False, problem)
    digests = []
    for k, (_, outdir, results) in enumerate(passes):
        checker.check_pass(results)
        digests.append(tree_digest(outdir))
        checker.expect(digests[-1] == digests[0], f"pass {k} output digest differs from pass 0")
    return {
        "rd": rd, "setup_s": _median(setup_times), "setup_times": setup_times,
        "passes": passes, "cfg": cfg, "config": config,
        "checker": checker, "digests": digests, "tracer": tracer,
    }


def command_times(passes):
    """Median over passes of each command's total time in the pass."""
    names = sorted({c for _, _, results in passes for c, *_ in results})
    return {c: _median([sum(t for cc, _, _, t in results if cc == c)
                        for _, _, results in passes]) for c in names}


def workload_figures(rd, name, m):
    """Every end-to-end figure the workload reports, as {name: (value, unit)}.
    A figure that a failed command left without a value is None."""
    passes, cfg, checker = m["passes"], m["cfg"], m["checker"]
    cmd = command_times(passes)
    trained = [p for p in ("pretrain", "finetune") if p in cmd]
    images = sum(cfg["train"][p]["total_iterations"] * cfg["train"][p]["batch_size"]
                 for p in trained)
    stereo_runs = sum(c == "stereo" for c, _, _, _ in passes[0][2])
    values = {
        "wall_s": _median([p[0] for p in passes]),
        "setup_s": m["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fail_rate": checker.failed / checker.attempted,
        "train_img_per_s": images / sum(cmd[p] for p in trained) if trained else None,
        "stereo_scenes_per_s": (stereo_runs * cfg["synth"]["count"] / cmd["stereo"]
                                if stereo_runs else None),
        **checker.quality,
    }
    if "pretrain" in cmd and checker.failed == 0:
        terms = rank_pair_terms(rd, passes[0][2], m["config"])
        values["rank_pairs_per_s"] = terms / cmd["pretrain"]
    return {k: (values.get(k), FIGURES[k]) for k in REPORTED[name]}, cmd


def rank_pair_terms(rd, results, config):
    """Grid pair terms the pretrain command evaluated: its batches are drawn
    as the trainer draws them, from the CLI's derived seed."""
    from reldepth.network import map_pairs_to_grid
    from reldepth.ordinal import load_pairs_csv

    flags = next(f for c, f, _, _ in results if c == "pretrain")
    cfg = rd.cli.load_config(config, int(flags["--seed"]))
    pair_dir = Path(flags["--pairs"])
    manifest = json.loads((pair_dir / "manifest.json").read_text())
    sizes = [len(map_pairs_to_grid(load_pairs_csv(pair_dir / e["pairs"]), cfg.net.total_stride))
             for e in manifest["scenes"]]
    rng = rd.np.random.default_rng(rd.cli._derive_seed(cfg.seed, 11))
    return sum(sizes[i] for _ in range(cfg.pretrain.total_iterations)
               for i in rng.integers(0, len(sizes), size=cfg.pretrain.batch_size))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPORTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="64x64 scenes and a one-iteration net, for the self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        _Reldepth()  # numpy's import and reldepth's first compile stay out of set-up
    except ImportError as exc:
        print(f"cannot import reldepth from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    m = measure(args.workload, args, base)
    rd, checker = m["rd"], m["checker"]
    record = {}
    if args.trace:
        import layers
        import spans

        all_spans = m["tracer"].spans
        (base / "spans.json").write_text(json.dumps(all_spans))
        for problem in spans.check_nesting(all_spans):
            checker.expect(False, problem)
        values = layers.compute(all_spans)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in layers.spec()}
        calls = {}
        for s in all_spans:
            calls.setdefault(s["name"], []).append(1e3 * spans.duration(s))
        record["per_call_ms"] = {n: spans.percentiles(v) for n, v in sorted(calls.items())}
    figs, cmd = workload_figures(rd, args.workload, m)
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(m["passes"]), "pass_s": [p[0] for p in m["passes"]],
        "setup_times": m["setup_times"],
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems, "digest": m["digests"][0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figs.items()},
        "cli_s": cmd, "pairs_equal_frac": checker.quality.get("equal_frac"),
        "machine": machine_record(rd.np),
    })
    if not args.trace:
        metrics = {n: {"value": figs[n][0], "unit": FIGURES[n]} for n in END_TO_END}
    shown = metrics if args.trace else record["metrics"]

    for key, item in shown.items():
        value = "n/a" if item["value"] is None else f"{item['value']:.6g}"
        print(f"{args.workload:14s} {key:40s} {value:>14s} {item['unit']}")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
