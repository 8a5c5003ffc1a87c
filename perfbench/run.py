"""Election benchmark for predvote: one workload per call, or all of them.

Usage (from the repository root):

    python3 perfbench/run.py --workload zoo|param|kde|all --seed N --seconds S --trace 0|1

With --trace 0 it times whole ``predvote run`` CLI processes at
--workers 1 and 2 and fresh set-up processes, in rounds, for about
--seconds, and gates every run's outputs. With --trace 1 it times the
engine and a traced replica of its cell loop in-process and reports
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE_DIR = HERE / "reference"

MIN_ROUNDS = 5          # timed rounds per --trace 0 run, whatever --seconds says
SETUP_PER_ROUND = 2     # fresh set-up processes per round
MIN_PASSES = 2          # engine + replica passes per --trace 1 run
W2_RUNS = 3             # workers=2 engine runs per --trace 1 run
PASS_SHARE = 0.7        # share of --seconds for the passes; workers=2 runs and microbenches follow
NO_NEW_ROUND_AFTER = 110.0  # seconds; keeps a run well inside its 180 s limit
CHILD_TIMEOUT = 150.0   # seconds before a hung child process is killed
TRACE_TOLERANCE = 0.05  # layer self times should sum to within 5% of engine.simulate_s
MICROBENCH_REPS = 3     # standalone fits of a family the workload does not refit


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    """The inherited environment with src/ on PYTHONPATH; BLAS threading is left alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(cmd: list[str], log: Path) -> tuple[float, float, int]:
    """Run a child to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_run(config: Path, data: Path, out: Path, workers: int) -> tuple[float, float, int]:
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "predvote.cli", "run", "--config", str(config), "--data", str(data),
           "--out", str(out), "--workers", str(workers)]
    return spawn(cmd, out.with_suffix(".log"))


def setup_run(config: Path, data: Path, log: Path) -> tuple[float, dict]:
    wall, _, code = spawn([sys.executable, str(HERE / "setup_probe.py"), str(config), str(data)], log)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}; see {log}")
    return wall, json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Inf-type order statistic, as predvote's own quantiles: index ceil(q * n)."""
    ordered = sorted(values)
    index = math.ceil(q * len(ordered) - 1e-9)  # the 1e-9 keeps 0.9 * 10 from rounding up to 10
    return ordered[min(max(index, 1), len(ordered)) - 1]


def provenance(workload, seed: int) -> dict:
    import numpy as np

    from workloads import config_hash

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "predvote").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "workload": workload.name,
        "seed": seed,
        "config_hash": config_hash(workload, seed),
    }


def load_inputs(config_path: Path, data_path: Path):
    from predvote.dataset import load_csv
    from predvote.engine import config_from_dict

    config = config_from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    return config, load_csv(str(data_path), config.schema)


def as_result(matrix, winners):
    """An in-process accuracy matrix and winner sets in the form the gate compares."""
    from gate import RunResult

    labels = ["|".join(str(part) for part in label) for label in matrix.row_labels]
    return RunResult(matrix.entries, labels, list(matrix.col_labels), winners, 0, b"")


def reference_checks(workload, seed: int):
    """(name, expected) pairs from the recorded reference, which covers the default seed only."""
    from gate import RunResult
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return []
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        raise RuntimeError(f"reference {path} is missing")
    return [("reference", RunResult.from_json(json.loads(path.read_text(encoding="utf-8"))))]


def run_timed(workload, seed: int, seconds: float, work: Path) -> dict:
    """--trace 0: one gated --workers 2 run, then rounds of gated --workers 1 runs and set-up probes."""
    from gate import compare, compare_workers, read_run
    from replica import accuracy_matrix, elect, replicate
    from spans import NullTracer
    from workloads import write_inputs

    config_path, data_path = write_inputs(workload, seed, work / "inputs")
    config, frame = load_inputs(config_path, data_path)
    matrix = accuracy_matrix(config, replicate(config, frame, NullTracer()))
    checks = [("replica", as_result(matrix, elect(matrix)[0]))]
    checks += reference_checks(workload, seed)
    attempted = failed = 0
    problems: list[str] = []

    def gated_run(workers: int, label: str, paired=None):
        """One CLI run, gated; a run that fails the gate counts all its refits as failed."""
        nonlocal attempted, failed
        out = work / f"out_w{workers}"
        wall, rss, code = cli_run(config_path, data_path, out, workers)
        attempted += workload.refits_per_run
        result, found = None, [f"exited {code}"] if code else []
        if not code:
            try:
                result = read_run(out)
            except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
                found.append(f"outputs unreadable: {exc!r}")
        if result is not None:
            found += [f"{name}: {p}" for name, expected in checks for p in compare(result, expected)]
            if paired is not None:
                found += compare_workers(result, paired)
        problems.extend(f"{label}: {p}" for p in found)
        failed += workload.refits_per_run if found else result.failed_refits
        return wall, rss, result

    run_w2_s, _, w2_result = gated_run(2, "workers=2 run")
    samples = {"run_s": [], "setup_s": [], "peak_rss_mb": []}
    started = time.perf_counter()
    last_round = 0.0
    while len(samples["run_s"]) < MIN_ROUNDS or (
        time.perf_counter() - started + last_round <= seconds
        and time.perf_counter() - started < NO_NEW_ROUND_AFTER
    ):
        round_started = time.perf_counter()
        wall, rss, _ = gated_run(1, f"round {len(samples['run_s'])}", paired=w2_result)
        samples["run_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        for i in range(SETUP_PER_ROUND):
            samples["setup_s"].append(setup_run(config_path, data_path, work / f"setup{i}.log")[0])
        last_round = time.perf_counter() - round_started

    rounds = len(samples["run_s"])
    print(f"workload {workload.name}: seed {seed}, {rounds} rounds, {time.perf_counter() - started:.1f} s")
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for key, values in samples.items():
        median = statistics.median(values)
        metrics[key] = {"value": median, "unit": units[key]}
        print(f"  {key:<12} {median:10.4f} {units[key]:<3} median of {len(values)}; "
              f"min {min(values):.4f}, max {max(values):.4f}")
    print(f"  {'run_w2_s':<12} {run_w2_s:10.4f} s   one gate run; not a bounded metric (see README)")
    print(f"  {'fail_share':<12} {failed / attempted:10.4f} -   {failed} of {attempted} refits failed")
    for p in problems:
        print(f"  GATE FAIL {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload, seed: int, seconds: float, work: Path) -> dict:
    """--trace 1: per-layer metrics from a traced replica next to the untraced engine."""
    import numpy as np

    from gate import compare
    from predvote.engine import simulate_errors
    from predvote.models import ALL_FAMILIES, ModelSpec, fit
    from replica import accuracy_matrix, elect, fit_generators, replicate, write_artifacts
    from spans import NullTracer, Tracer
    from workloads import write_inputs

    config_path, data_path = write_inputs(workload, seed, work / "inputs")
    config, frame = load_inputs(config_path, data_path)
    checks = reference_checks(workload, seed)
    problems: list[str] = []
    started = time.perf_counter()

    probes = [setup_run(config_path, data_path, work / f"setup{i}.log")[1] for i in range(3)]
    replicate(config, frame, NullTracer())  # warm-up: the first pass in a process runs cold

    tracer = Tracer()
    passes = {k: [] for k in ("simulate", "traced", "self", "reduce", "elect", "write")}
    layer_self: dict[str, list[float]] = {}
    io_bytes = 0
    last_pass = 0.0
    while len(passes["traced"]) < MIN_PASSES or (
        time.perf_counter() - started + last_pass <= PASS_SHARE * seconds
        and time.perf_counter() - started < NO_NEW_ROUND_AFTER
    ):
        pass_started = time.perf_counter()
        root = len(tracer.names)
        # the untraced engine and the traced replica run back to back, in alternating
        # order, so that neither always inherits the other's cache and allocator state
        for step in ("engine", "replica") if len(passes["traced"]) % 2 == 0 else ("replica", "engine"):
            t0 = time.perf_counter()
            if step == "engine":
                engine_w1 = simulate_errors(config, frame, workers=1)
                passes["simulate"].append(time.perf_counter() - t0)
            else:
                tensor = replicate(config, frame, tracer)
                passes["traced"].append(time.perf_counter() - t0)
        layers = tracer.self_times(root)
        passes["self"].append(sum(layers.values()))
        for layer, value in layers.items():
            layer_self.setdefault(layer, []).append(value)

        if not (np.array_equal(tensor.values, engine_w1.values)
                and np.array_equal(tensor.failure_mask, engine_w1.failure_mask)):
            problems.append("traced replica does not reproduce simulate_errors bit for bit")

        t0 = time.perf_counter()
        matrix = accuracy_matrix(config, engine_w1)
        t1 = time.perf_counter()
        winners, voting_matrices = elect(matrix)
        t2 = time.perf_counter()
        io_bytes = write_artifacts(work / "artifacts", matrix, voting_matrices)
        t3 = time.perf_counter()
        passes["reduce"].append(t1 - t0)
        passes["elect"].append(t2 - t1)
        passes["write"].append(t3 - t2)
        result = as_result(matrix, winners)
        problems += [f"{name}: {p}" for name, expected in checks for p in compare(result, expected)]
        last_pass = time.perf_counter() - pass_started

    # workers=2 runs come after the paired passes: a step that follows a process pool
    # runs measurably slower, which would bias the traced/untraced pairing
    simulate_w2 = []
    for _ in range(W2_RUNS):
        t0 = time.perf_counter()
        engine_w2 = simulate_errors(config, frame, workers=2)
        simulate_w2.append(time.perf_counter() - t0)
        if not (np.array_equal(engine_w2.values, engine_w1.values)
                and np.array_equal(engine_w2.failure_mask, engine_w1.failure_mask)):
            problems.append("simulate_errors differs between workers=1 and workers=2")

    fitted, kdes = fit_generators(config, frame, NullTracer())
    x_full = frame.x_full
    mean_ms = []
    for model in fitted:
        for _ in range(3):
            t0 = time.perf_counter()
            model.predict(x_full)
            mean_ms.append((time.perf_counter() - t0) * 1e3)
    chunk = max(1, -(-config.iterations // 8))  # the engine's chunk at workers=2
    task_bytes = max(
        len(pickle.dumps((frame, model, kde, config.strategies, config.characteristics,
                          config.master_seed, g, 0, chunk)))
        for g, (model, kde) in enumerate(zip(fitted, kdes))
    )

    pass_count = len(passes["traced"])
    med = {k: statistics.median(v) for k, v in passes.items()}
    metrics: dict[str, tuple[float, str]] = {}
    refit_families = {s.model.family for s in config.strategies}
    for family in ALL_FAMILIES:
        fit_s = tracer.durations("models.fit", family)
        predict_s = tracer.durations("models.predict", family)
        refits = len(fit_s) // pass_count
        fails = (len(fit_s) - len(predict_s)) // pass_count
        if family not in refit_families:
            # not refitted by this workload: time standalone fits on the real sample
            spec = ModelSpec(family)
            for _ in range(MICROBENCH_REPS):
                t0 = time.perf_counter()
                model = fit(spec, frame.x_sample, frame.y_sample)
                t1 = time.perf_counter()
                model.predict(frame.x_out)
                t2 = time.perf_counter()
                fit_s.append(t1 - t0)
                predict_s.append(t2 - t1)
        metrics[f"models.fit_ms.{family}.p50"] = (1e3 * quantile(fit_s, 0.5), "ms")
        metrics[f"models.fit_ms.{family}.p90"] = (1e3 * quantile(fit_s, 0.9), "ms")
        metrics[f"models.predict_ms.{family}.p50"] = (1e3 * quantile(predict_s, 0.5), "ms")
        metrics[f"models.refits.{family}"] = (refits, "count")
        metrics[f"models.refit_fail_share.{family}"] = (fails / refits if refits else 0.0, "share")
    draws = tracer.durations("generators.draw")
    cells = tracer.durations("engine.cell")
    metrics.update({
        "models.gen_fit_ms": (1e3 * statistics.median(p["gen_fit_s"] for p in probes), "ms"),
        "prediction.truth_ms.p50": (1e3 * quantile(tracer.durations("prediction.truth"), 0.5), "ms"),
        "prediction.plugin_eval_ms.p50": (1e3 * quantile(tracer.durations("prediction.plugin_eval"), 0.5), "ms"),
        "generators.draw_ms.p50": (1e3 * quantile(draws, 0.5), "ms"),
        "generators.draw_ms.p90": (1e3 * quantile(draws, 0.9), "ms"),
        "generators.mean_ms.p50": (quantile(mean_ms, 0.5), "ms"),
        "generators.draws": (len(draws) // pass_count, "count"),
        "engine.simulate_s": (med["simulate"], "s"),
        "engine.simulate_w2_s": (statistics.median(simulate_w2), "s"),
        "engine.task_bytes": (task_bytes, "bytes_computed"),
        "engine.cell_ms.p50": (1e3 * quantile(cells, 0.5), "ms"),
        "engine.cell_ms.p90": (1e3 * quantile(cells, 0.9), "ms"),
        "dataset.load_s": (statistics.median(p["load_s"] for p in probes), "s"),
        "cli.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "accuracy.reduce_ms": (1e3 * med["reduce"], "ms"),
        "voting.elect_ms": (1e3 * med["elect"], "ms"),
        "matrix_io.write_ms": (1e3 * med["write"], "ms"),
        "matrix_io.bytes": (io_bytes, "bytes"),
    })
    for layer in ("engine", "generators", "models", "prediction"):
        metrics[f"self_s.{layer}"] = (statistics.median(layer_self.get(layer, [0.0])), "s")
    # pairing each pass's traced and untraced runs keeps slow drift in machine speed
    # out of the comparison
    paired = list(zip(passes["simulate"], passes["traced"], passes["self"]))
    coverage = statistics.median(own / untraced for untraced, _, own in paired)
    metrics["trace.overhead_s"] = (statistics.median(traced - untraced for untraced, traced, _ in paired), "s")
    metrics["trace.coverage"] = (coverage, "ratio")
    # a timing check on the instrument, not on the program's outputs, so it warns instead
    # of failing the gate: single passes vary by about 10% on a shared machine, which
    # moves this median by about 5%
    warnings = []
    if abs(coverage - 1.0) > TRACE_TOLERANCE:
        warnings.append(f"layer self times sum to {coverage:.3f} of engine.simulate_s (tolerance {TRACE_TOLERANCE})")

    tracer.write(work / "spans.jsonl")
    print(f"workload {workload.name}: seed {seed}, traced, {pass_count} passes, "
          f"{len(tracer.names)} spans in {work / 'spans.jsonl'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    for p in sorted(set(problems)):
        print(f"  GATE FAIL {p}")
    for w in warnings:
        print(f"  TRACE WARN {w}")
    attempted = len(tracer.durations("models.fit"))
    failed = attempted if problems else attempted - len(tracer.durations("models.predict"))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "predvote" / "__init__.py").is_file():
        die(f"predvote sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import predvote

    if Path(predvote.__file__).resolve().parent != (SRC / "predvote").resolve():
        die(f"imported predvote from {predvote.__file__}, not from {SRC}")
    from workloads import DEFAULT_SEED, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        die(f"unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)} or 'all'")
    seed = DEFAULT_SEED if args.seed is None else args.seed

    outcomes = {}
    for name in names:
        workload = WORKLOADS[name]
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        print("provenance " + json.dumps(provenance(workload, seed), sort_keys=True))
        measure = run_traced if args.trace else run_timed
        outcomes[name] = measure(workload, seed, args.seconds, work)

    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
