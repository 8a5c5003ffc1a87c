"""Record the default-seed reference outputs or the baseline numbers.

Usage (from the repository root):

    python3 perfbench/record.py reference   # writes perfbench/reference/<workload>.json
    python3 perfbench/record.py baseline [SECONDS [WORKLOAD ...]]   # writes perfbench/baseline/<workload>.json

The reference is what ``predvote run --workers 1`` writes for each
workload at the default seed; every later run at that seed is gated
against it. Record it only from a commit whose outputs are trusted. The
baseline holds run.py's final JSON for --trace 0 at seeds 1 to 10, their
median, quartiles and spread ((q3 - q1) / median) per metric, and one
--trace 1 run at the default seed, with provenance.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import run


def record_reference() -> None:
    sys.path.insert(0, str(run.SRC))
    from gate import read_run
    from workloads import DEFAULT_SEED, WORKLOADS, config_hash, write_inputs

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        work = run.WORK / "record" / name
        shutil.rmtree(work, ignore_errors=True)
        config, data = write_inputs(workload, DEFAULT_SEED, work)
        _, _, code = run.cli_run(config, data, work / "out", 1)
        if code != 0:
            raise SystemExit(f"{name}: predvote run exited {code}; see {work / 'out.log'}")
        doc = {"seed": DEFAULT_SEED, "config_hash": config_hash(workload, DEFAULT_SEED)}
        doc.update(read_run(work / "out").to_json())
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


def record_baseline(seconds: str, names: list[str], seed_count: int = 10) -> None:
    """Run each workload at seeds 1..seed_count (--trace 0) and once traced at the default seed."""
    from workloads import DEFAULT_SEED

    def bench(name: str, seed: int, trace: int) -> tuple[dict, dict]:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[0].removeprefix("provenance ")), json.loads(lines[-1])

    directory = run.HERE / "baseline"
    directory.mkdir(exist_ok=True)
    for name in names:
        runs = {}
        for seed in range(1, seed_count + 1):
            _, runs[seed] = bench(name, seed, 0)
            print(f"{name} seed {seed}: " + json.dumps(runs[seed]), flush=True)
        provenance, traced = bench(name, DEFAULT_SEED, 1)
        summary = {}
        for metric in runs[1]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs.values()]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                               "unit": runs[1]["metrics"][metric]["unit"]}
            print(f"{name} {metric}: median {median:.4f} spread {(q3 - q1) / median:.4f}", flush=True)
        doc = {
            "provenance": provenance,
            "seconds": float(seconds),
            "summary": summary,
            "trace0_by_seed": runs,
            "trace1_default_seed": traced,
        }
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["reference"]:
        record_reference()
    elif sys.argv[1:2] == ["baseline"]:
        from workloads import WORKLOADS

        record_baseline(sys.argv[2] if len(sys.argv) > 2 else "50", sys.argv[3:] or list(WORKLOADS))
    else:
        raise SystemExit(__doc__)
