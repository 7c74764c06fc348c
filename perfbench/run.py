#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  NAME is one of ``nightly-pc``,
``nightly-wc``, ``fig6-warm``, ``serve-mixed`` or ``all``.  With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer metrics.  Every metric is printed by name and unit on
standard error, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each phase runs in a fresh interpreter (``worker.py``) whose
``PYTHONHASHSEED`` is the workload seed modulo 2**32.  Scratch files
go under ``.perfbench/`` in the checkout; the record of each run, with
its seeds and the failing operations by name, is kept in
``.perfbench/records/``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("nightly-pc", "nightly-wc", "fig6-warm", "serve-mixed")
#: Set-ups measured per untraced run; setup_s is their median.  A
#: fig6-warm set-up is a ~15 s capture, so it is measured once.
SETUPS = {"nightly-pc": 3, "nightly-wc": 3, "serve-mixed": 3}
#: Whole run, all workers included, stays under this many seconds.
TIME_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "throughput": "1/s", "p50_ms": "ms",
              "peak_rss_mb": "MB"}
FIG6_ROWS = ("BFS", "SSSP", "BC", "Silo", "Masstree")
PER_LAYER = {
    "static.classify_s": "s", "static.classify_calls": "count",
    "static.short_circuit_share": "fraction",
    "enum.self_s": "s", "enum.candidates_examined": "count",
    "enum.rf_assignments": "count",
    "explore.self_s": "s", "explore.states_visited": "count",
    "explore.transitions_executed": "count",
    "explore.interleavings": "count",
    "taint.self_s": "s", "taint.flows": "count",
    "harness.run_seeds_s": "s", "harness.runs": "count",
    "checker.self_s": "s",
    "campaign.unattributed_s": "s",
    "campaign.unattributed_share": "fraction",
    "campaign.test_p99_ms": "ms",
    "randgen.generate_s": "s",
    "capture.build_s": "s", "capture.load_s": "s",
    "timing.run_s": "s", "timing.ns_per_inst": "ns",
    "timing.sim_instructions": "count",
    "timing.imprecise_exceptions": "count",
    **{f"timing.cycles.{row}.{mode}": "cycles"
       for row in FIG6_ROWS for mode in ("baseline", "imprecise")},
    "store.get_s": "s", "store.put_s": "s", "store.save_s": "s",
    "store.records": "count",
    "serve.batches": "count", "serve.tests_per_batch": "count",
    "serve.batch_campaign_s": "s", "serve.served_from_store": "count",
    "serve.query_p99_ms": "ms",
    "serve.submit_p50_ms": "ms", "serve.submit_p90_ms": "ms",
    "trace.overhead_share": "fraction",
}


class BenchError(RuntimeError):
    pass


def hash_seed(seed: int) -> int:
    """The fixed rule: PYTHONHASHSEED is the workload seed mod 2**32."""
    return seed % 2**32


class Runner:
    """Starts the workers of one workload run, under one deadline."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.work = OUT / f"run-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = str(hash_seed(seed))
        self.started = 0

    def worker(self, phase: str, **fields) -> Dict:
        self.started += 1
        tag = f"{self.started}-{phase}"
        spec = {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "phase": phase,
                "work_dir": str(self.work / tag),
                "result": str(self.work / f"{tag}.result.json"), **fields}
        (self.work / tag).mkdir()
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=sys.stderr.fileno(), start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline
                                         - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The worker's session holds any daemon it started.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise BenchError(f"{phase} worker ran past the time limit")
        if code != 0:
            raise BenchError(f"{phase} worker exited with {code}")
        return json.loads(Path(spec["result"]).read_text())

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(result: Dict) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "throughput": result["work"] / sum(result["walls"]),
        "p50_ms": result["p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure(runner: Runner) -> List[Dict]:
    """The untraced run: set-ups, then the timed passes."""
    name = runner.workload
    if name == "serve-mixed":
        return [runner.worker("run", setups=SETUPS[name])]
    setups: List[float] = []
    if name == "fig6-warm":
        cache_dir = str(runner.work / "traces")
        setups += runner.worker("setup", cache_dir=cache_dir)["setup_s"]
        result = runner.worker("run", cache_dir=cache_dir)
    else:
        for _ in range(SETUPS[name] - 1):
            setups += runner.worker("setup")["setup_s"]
        result = runner.worker("run")
    result["setup_s"] = setups + result["setup_s"]
    return [result]


def measure_traced(runner: Runner) -> List[Dict]:
    """An untraced run for reference, then the traced run."""
    name = runner.workload
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    spans = str(OUT / "traces" / f"{name}-seed{runner.seed}.spans.jsonl")
    if name == "serve-mixed":
        base = runner.worker("run", setups=1)
        traced = runner.worker("traced", spans=spans)
    elif name == "fig6-warm":
        # The capture gets a worker of its own, so both replays start
        # from the same fresh-process state.
        cache_dir = str(runner.work / "traces")
        setup = runner.worker("setup", cache_dir=cache_dir, traced=True)
        base = runner.worker("run", cache_dir=cache_dir)
        traced = runner.worker("traced", cache_dir=cache_dir, spans=spans)
        traced["layers"].update(setup["layers"])
    else:
        base = runner.worker("run")
        traced = runner.worker("traced", spans=spans)
    layers = traced["layers"]
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"unlisted per-layer metrics {sorted(unknown)}")
    # Tail latencies, from the untraced run.
    if name == "serve-mixed":
        for key in ("query_p99_ms", "submit_p50_ms", "submit_p90_ms"):
            layers[f"serve.{key}"] = base["extra"][key]
    elif name != "fig6-warm":
        layers["campaign.test_p99_ms"] = base["extra"]["test_p99_ms"]
    layers["trace.overhead_share"] = traced["unit_s"] / base["unit_s"] - 1
    base["layers"] = layers
    return [base, traced]


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> Dict:
    runner = Runner(name, seed, seconds, deadline)
    try:
        runs = measure_traced(runner) if trace else measure(runner)
    finally:
        runner.close()
    if trace:
        values = {key: 0.0 for key in PER_LAYER}
        values.update(runs[0]["layers"])
        units = PER_LAYER
    else:
        values = end_to_end(runs[0])
        units = END_TO_END
    failures: Dict[str, str] = {}
    problems: List[str] = []
    for run in runs:
        failures.update(run["failures"])
        problems.extend(run["problems"])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    record = {
        "workload": name, "seed": seed, "pythonhashseed": hash_seed(seed),
        "seconds": seconds, "trace": trace, "correct": not problems,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": failures, "problems": problems,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
        "extra": [run["extra"] for run in runs],
    }
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def describe(record: Dict) -> str:
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"PYTHONHASHSEED={record['pythonhashseed']} "
             f"trace={record['trace']}"]
    for key, metric in record["metrics"].items():
        lines.append(f"  {key:<34} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    lines.append(f"  {'error_rate':<34} {record['error_rate']:>14.6g} "
                 f"({record['failed']} of {record['attempted']} failed)")
    for name, reason in sorted(record["failures"].items()):
        lines.append(f"    failed: {name}: {reason}")
    for problem in record["problems"]:
        lines.append(f"    BROKEN OUTPUT: {problem}")
    lines.append(f"  correct: {'yes' if record['correct'] else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            record = run_workload(name, args.seed, args.seconds,
                                  args.trace, deadline)
        except BenchError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 1
        print(describe(record), file=sys.stderr)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": metric for r in records
                   for key, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
