"""One benchmark phase in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json
        run the phase described by SPEC.json and write its result to
        the spec's ``result`` path
    python3 perfbench/worker.py daemon OUT.json SPANS.jsonl ARG...
        run ``repro ARG...`` (a ``serve`` command) with its layers
        traced, writing the per-layer figures to OUT.json and the spans
        to SPANS.jsonl on exit

``run.py`` starts every worker with ``PYTHONPATH`` naming the
checkout's ``src`` and ``PYTHONHASHSEED`` fixed from the workload seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def run_phase(spec: dict) -> dict:
    name, seed = spec["workload"], spec["seed"]
    phase, seconds = spec["phase"], spec["seconds"]
    work_dir = Path(spec["work_dir"])
    traced = phase == "traced"
    if name in workloads.NIGHTLY:
        if phase == "setup":
            _tests, setup_s = workloads.nightly_setup(name, seed)
            return {"setup_s": [setup_s]}
        return workloads.nightly_run(name, seed, seconds, traced)
    if name == "fig6-warm":
        cache_dir = Path(spec["cache_dir"])
        if phase == "setup":
            return workloads.fig6_setup(cache_dir, spec.get("traced", False))
        return workloads.fig6_run(seed, seconds, cache_dir, traced)
    if name == "serve-mixed":
        return workloads.serve_run(seed, seconds, work_dir, traced,
                                   spec.get("setups", 1), spec.get("spans"))
    raise SystemExit(f"unknown workload {name!r}")


def main(argv) -> int:
    if argv[:1] == ["daemon"]:
        return workloads.serve_daemon(argv[1], argv[2], argv[3:])
    spec = json.loads(Path(argv[0]).read_text())
    result = run_phase(spec)
    tracer = result.pop("spans", None)
    if tracer is not None and spec.get("spans"):
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
