"""The benchmark's workloads, run inside a fresh worker interpreter.

Every ``*_run`` function returns one plain result dict:

``setup_s``      set-up samples in seconds
``walls``        host seconds of each timed pass
``work``         work units done in the timed passes (tests,
                 simulated kilo-instructions or requests)
``p50_ms``       median latency of one answer (a test's verdict, a
                 whole Figure 6 sweep, a query)
``unit_s``       host seconds of one unit of repeated work, compared
                 between the untraced and the traced run
``peak_rss_mb``  peak resident set of the process doing the work
``attempted``/``failed``/``failures``  operations and the named
                 failures among them (verdicts that are not ``ok``,
                 refused requests)
``problems``     broken outputs; any entry makes the run incorrect
``layers``       per-layer metrics (traced runs only)
``extra``        further figures for the record file
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Campaign flags of ``repro litmus --profile nightly --taint``.
NIGHTLY_FLAGS = dict(seeds=2, clean_pass=False, explore="dpor",
                     prefilter=True, taint=True)

#: ``randgen_seed`` None means "the workload seed".  nightly-wc keeps
#: the fixed seed-7 slice: its time sits in a handful of tests, so a
#: fresh slice per seed moves tests/s by more than 3x (see README.md).
NIGHTLY = {
    "nightly-pc": {"model": "PC", "count": 2000, "randgen_seed": None},
    "nightly-wc": {"model": "WC", "count": 300, "randgen_seed": 7},
}

#: ``repro fig6`` has no seed flag: its sweep always builds seed 1.
FIG6_SEED = 1

#: serve-mixed: tests stored in set-up, queries per unseen submit.
SERVE_WARM = 200
SERVE_QUERIES_PER_SUBMIT = 9
SERVE_SETUPS = 3
SERVE_FLAGS = ["--model", "PC", "--seeds", "2", "--skip-clean",
               "--jobs", "1", "--quiet"]


def new_result() -> Dict:
    return {"setup_s": [], "walls": [], "work": 0.0, "p50_ms": 0.0,
            "unit_s": 0.0, "peak_rss_mb": 0.0,
            "attempted": 0, "failed": 0, "failures": {}, "problems": [],
            "layers": {}, "extra": {}}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _fail(result: Dict, name: str, reason: str) -> None:
    result["failed"] += 1
    result["failures"].setdefault(name, reason)


# ----------------------------------------------------------------------
# Layers of the litmus campaign
# ----------------------------------------------------------------------
def install_litmus_layers(tracer: Tracer, counts: Dict) -> None:
    """Wrap each campaign layer where ``check_test`` looks it up."""
    import repro.explore as explore
    import repro.litmus.campaign as campaign
    import repro.litmus.harness as harness
    import repro.litmus.randgen as randgen
    import repro.staticanalysis as static

    def count_runs(run):
        counts["runs"] = counts.get("runs", 0) + run.runs

    # check_test calls classify; crosscheck_test calls classify_events.
    tracer.wrap(static, "classify", "static")
    tracer.wrap(static, "classify_events", "static")
    tracer.wrap(harness, "allowed_set_with_stats", "enum")
    tracer.wrap(explore, "crosscheck_test", "explore")
    tracer.wrap(static, "analyze_taint", "taint")
    tracer.wrap(harness, "run_test", "harness.run_seeds",
                observe=count_runs)
    tracer.wrap(harness, "check_outcome_set", "checker")
    tracer.wrap(campaign, "run_campaign", "campaign")
    tracer.wrap(randgen, "generate_corpus", "randgen")


def litmus_layer_metrics(tracer: Tracer, counts: Dict,
                         report=None) -> Dict[str, float]:
    campaign_s = tracer.total_s("campaign")
    unattributed = tracer.self_s("campaign")
    layers = {
        "static.classify_s": tracer.self_s("static"),
        "static.classify_calls": tracer.calls("static"),
        "enum.self_s": tracer.self_s("enum"),
        "explore.self_s": tracer.self_s("explore"),
        "taint.self_s": tracer.self_s("taint"),
        "harness.run_seeds_s": tracer.self_s("harness.run_seeds"),
        "harness.runs": counts.get("runs", 0),
        "checker.self_s": tracer.self_s("checker"),
        "campaign.unattributed_s": unattributed,
        "campaign.unattributed_share": (unattributed / campaign_s
                                        if campaign_s else 0.0),
        "randgen.generate_s": tracer.total_s("randgen"),
    }
    if report is not None:
        st = report.static_totals()
        et = report.enumerator_totals()
        xt = report.explorer_totals()
        tt = report.taint_totals()
        layers.update({
            "static.short_circuit_share": (
                st["short_circuited"] / st["tests_classified"]
                if st["tests_classified"] else 0.0),
            "enum.candidates_examined": et["candidates_examined"],
            "enum.rf_assignments": et["rf_assignments"],
            "explore.states_visited": xt["states_visited"],
            "explore.transitions_executed": xt["transitions_executed"],
            "explore.interleavings": xt["interleavings"],
            "taint.flows": tt["flows"],
        })
    return layers


# ----------------------------------------------------------------------
# nightly-pc / nightly-wc
# ----------------------------------------------------------------------
def nightly_setup(name: str, seed: int):
    """Generate the slice: the tests, and the seconds it took."""
    from repro.litmus import randgen
    spec = NIGHTLY[name]
    randgen_seed = spec["randgen_seed"]
    started = time.perf_counter()
    corpus = randgen.generate_corpus(
        seed=seed if randgen_seed is None else randgen_seed,
        count=spec["count"])
    tests = corpus.litmus_tests()
    return tests, time.perf_counter() - started


def judge_campaign(report, tests: int, result: Dict) -> None:
    """Broken outputs become problems; verdicts that are not ``ok``
    become named failures."""
    result["attempted"] += report.tests
    for v in report.verdicts:
        name = v.test.name
        negative = sorted(v.conformance.negative_differences)
        if negative:
            result["problems"].append(
                f"{name}: seeded-sim outcomes outside the allowed set "
                f"{negative}")
        if v.run.contract_violations:
            result["problems"].append(
                f"{name}: {v.run.contract_violations} contract "
                f"violation(s)")
        check = v.explore_check
        if check is not None and check["violations"]:
            result["problems"].append(
                f"{name}: explorer outcomes outside the allowed set "
                f"{check['violations']}")
        if not v.ok:
            if check is not None and check["missing"]:
                reason = (f"explorer reaches {check['operational_outcomes']}"
                          f" of {check['allowed_outcomes']} allowed "
                          f"outcomes")
            else:
                reason = "verdict not ok"
            _fail(result, name, reason)
    enumerated = report.enumerator_totals()["tests_enumerated"]
    if report.tests != tests or enumerated != tests:
        result["problems"].append(
            f"{report.tests} verdicts and {enumerated} enumerations "
            f"for {tests} tests")


def nightly_run(name: str, seed: int, seconds: float,
                traced: bool) -> Dict:
    from repro.litmus import campaign
    from repro.litmus.runner import RunConfig

    result = new_result()
    tracer = Tracer() if traced else None
    counts: Dict = {}
    if tracer is not None:
        install_litmus_layers(tracer, counts)
    tests, setup_s = nightly_setup(name, seed)
    result["setup_s"].append(setup_s)
    config = RunConfig(model=NIGHTLY[name]["model"], **NIGHTLY_FLAGS)
    latency_ms: List[float] = []
    while True:
        started = time.perf_counter()
        # A fresh cache per pass: the module-level memo would skip
        # enumeration on a repeat pass in this process.
        report = campaign.run_campaign(tests, config, jobs=1,
                                       cache=campaign.AllowedSetCache())
        result["walls"].append(time.perf_counter() - started)
        latency_ms.extend(v.wall_time * 1000.0 for v in report.verdicts)
        judge_campaign(report, len(tests), result)
        if traced or sum(result["walls"]) >= seconds:
            break
    result["work"] = float(result["attempted"])
    result["p50_ms"] = statistics.median(latency_ms)
    result["extra"]["test_p99_ms"] = percentile(latency_ms, 99)
    result["unit_s"] = result["walls"][0]
    result["peak_rss_mb"] = own_peak_rss_mb()
    if tracer is not None:
        result["layers"] = litmus_layer_metrics(tracer, counts, report)
        result["spans"] = tracer
    return result


# ----------------------------------------------------------------------
# fig6-warm
# ----------------------------------------------------------------------
def fig6_setup(cache_dir: Path, traced: bool) -> Dict:
    """Capture every Figure 6 trace into ``cache_dir``, as the first
    ``repro fig6 --trace-cache DIR`` run does."""
    from repro.analysis.figure6 import FIGURE6_PARAMS
    from repro.workloads import capture, figure6_workload_names
    tracer = Tracer()
    if traced:
        tracer.wrap(capture, "capture_workload", "capture.build")
    cache = capture.TraceCache(cache_dir)
    started = time.perf_counter()
    for name in figure6_workload_names():
        params = dict(FIGURE6_PARAMS.get(name, {"scale": 1.0}))
        capture.capture_workload(name, cores=2, seed=FIG6_SEED,
                                 cache=cache, inject=True, **params)
    setup_s = time.perf_counter() - started
    layers = {"capture.build_s": tracer.total_s("capture.build")} \
        if traced else {}
    return {"setup_s": [setup_s], "layers": layers}


def fig6_run(seed: int, seconds: float, cache_dir: Path,
             traced: bool) -> Dict:
    from repro.analysis import figure6
    from repro.workloads import capture, figure6_workload_names

    result = new_result()
    # Untraced runs wrap run_trace too, for its instruction counts: ten
    # calls per sweep, so the timing it adds is negligible.
    tracer = Tracer()
    sim = {"instructions": 0}

    def count_instructions(timing):
        sim["instructions"] += timing.total_instructions

    tracer.wrap(figure6, "run_trace", "timing.run",
                observe=count_instructions)
    if traced:
        tracer.wrap(capture.TraceCache, "load", "capture.load")
    artifacts = sorted(os.listdir(cache_dir))
    names = figure6_workload_names()
    sweeps: List[List] = []
    while True:
        cache = capture.TraceCache(cache_dir)  # warm disk, cold memory
        started = time.perf_counter()
        sweeps.append([figure6.measure_figure6(
            name, cores=2, seed=FIG6_SEED, cache=cache, strategy="fast")
            for name in names])
        result["walls"].append(time.perf_counter() - started)
        if traced or sum(result["walls"]) >= seconds:
            break
    instructions = sim["instructions"]
    load_s = tracer.total_s("capture.load")
    run_s = tracer.total_s("timing.run")
    result["peak_rss_mb"] = own_peak_rss_mb()  # before the repeat below

    result["attempted"] = len(names) * len(sweeps)
    gate = figure6.figure6_gate(sweeps[0])
    result["problems"].extend(f"figure6_gate: {f}" for f in gate.failures)
    for i, rows in enumerate(sweeps[1:], start=2):
        if rows != sweeps[0]:
            result["problems"].append(
                f"sweep {i} simulated statistics differ from sweep 1")
    # One more repetition of one row, untimed, from a fresh cache.
    name = names[seed % len(names)]
    again = figure6.measure_figure6(
        name, cores=2, seed=FIG6_SEED, cache=capture.TraceCache(cache_dir),
        strategy="fast")
    if again != sweeps[0][names.index(name)]:
        result["problems"].append(
            f"{name}: a repeated run's simulated statistics differ")
    if sorted(os.listdir(cache_dir)) != artifacts:
        result["problems"].append(
            "the sweep captured traces that set-up did not")

    result["work"] = instructions / 1000.0
    # The answer a user waits for is the whole figure.
    result["p50_ms"] = statistics.median(result["walls"]) * 1000.0
    result["unit_s"] = result["walls"][0]
    rows = sweeps[0]
    result["extra"]["sim_instructions"] = instructions
    if traced:
        layers = {
            "capture.load_s": load_s,
            "timing.run_s": run_s,
            "timing.sim_instructions": instructions,
            "timing.imprecise_exceptions": sum(r.imprecise_exceptions
                                               for r in rows),
        }
        layers["timing.ns_per_inst"] = (layers["timing.run_s"] * 1e9
                                        / instructions
                                        if instructions else 0.0)
        for row in rows:
            layers[f"timing.cycles.{row.workload}.baseline"] = \
                row.baseline_cycles
            layers[f"timing.cycles.{row.workload}.imprecise"] = \
                row.imprecise_cycles
        result["layers"] = layers
        result["spans"] = tracer
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process on a Unix socket with a fresh store."""

    def __init__(self, work_dir: Path, tag: str,
                 trace_out: Optional[Path] = None,
                 spans: Optional[str] = None) -> None:
        self.dir = work_dir / tag
        self.dir.mkdir(parents=True)
        # Relative to the checkout root: socket paths are short-limited.
        self.socket = os.path.relpath(self.dir / "s.sock", ROOT)
        self.trace_out = trace_out
        self.spans = spans or str(self.dir / "spans.jsonl")
        self.proc: Optional[subprocess.Popen] = None
        self.log = None

    def start(self, timeout: float = 60.0):
        from repro.serve import ServeClient
        args = ["serve", "--store", str(self.dir / "store"),
                "--uds", self.socket, *SERVE_FLAGS]
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "worker.py"), "daemon",
                       str(self.trace_out), self.spans, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}")
            if os.path.exists(os.path.join(ROOT, self.socket)):
                try:
                    client = ServeClient(uds=os.path.join(ROOT, self.socket),
                                         timeout=60.0)
                    client.ping()
                    return client
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.01)

    def stop(self, client) -> None:
        """Shut the daemon down through ``client`` (or kill it when
        there is none), and wait until the process has ended."""
        try:
            if client is not None:
                client.shutdown()
                client.close()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.log.close()


def _verdict_key(verdict: Dict):
    injected = verdict.get("injected") or {}
    return verdict.get("ok"), injected.get("outcomes")


def serve_run(seed: int, seconds: float, work_dir: Path, traced: bool,
              setups: int, spans: Optional[str] = None) -> Dict:
    from repro.litmus import randgen
    from repro.serve import ServeError

    result = new_result()
    started = time.perf_counter()
    pool = randgen.generate_corpus(
        seed=seed, count=SERVE_WARM + int(25 * seconds) + 50).litmus_tests()
    generate_s = time.perf_counter() - started
    warm, fresh = pool[:SERVE_WARM], pool[SERVE_WARM:]
    trace_out = work_dir / "daemon-trace.json" if traced else None

    daemon = client = None
    expected: Dict[str, tuple] = {}
    try:
        for rep in range(setups):
            last = rep == setups - 1
            daemon = Daemon(work_dir, f"daemon{rep}",
                            trace_out if last else None, spans)
            started = time.perf_counter()
            client = daemon.start()
            response = client.submit(tests=warm)
            result["setup_s"].append(time.perf_counter() - started)
            if not last:
                daemon.stop(client)
                daemon = client = None
        result["attempted"] += len(warm)
        for entry in response["results"]:
            expected[entry["name"]] = _verdict_key(entry["verdict"])
            if not entry["verdict"].get("ok"):
                _fail(result, entry["name"], "verdict not ok")

        rng = random.Random(seed)
        unseen = iter(fresh)
        query_ms: List[float] = []
        submit_ms: List[float] = []
        requests = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for i in range(SERVE_QUERIES_PER_SUBMIT + 1):
                if i < SERVE_QUERIES_PER_SUBMIT:
                    op, test = "query", rng.choice(warm)
                else:
                    op, test = "submit", next(unseen)
                requests += 1
                sent = time.perf_counter()
                try:
                    if op == "query":
                        response = client.query(test=test)
                    else:
                        response = client.submit(test=test)
                except ServeError as exc:
                    _fail(result, f"{op} {test.name}", str(exc))
                    continue
                elapsed_ms = (time.perf_counter() - sent) * 1000.0
                verdict = response.get("verdict") or {}
                if op == "query":
                    query_ms.append(elapsed_ms)
                    if not response.get("hit"):
                        result["problems"].append(
                            f"warm query missed {test.name}")
                    elif _verdict_key(verdict) != expected[test.name]:
                        result["problems"].append(
                            f"query verdict for {test.name} differs "
                            f"from its submit")
                else:
                    submit_ms.append(elapsed_ms)
                    if not verdict.get("ok"):
                        _fail(result, test.name, "verdict not ok")
        wall = time.perf_counter() - started
        stats = client.stats()
    finally:
        if daemon is not None:
            daemon.stop(client)
    result["attempted"] += requests
    result["walls"].append(wall)
    result["work"] = float(requests)
    result["unit_s"] = wall / requests
    result["p50_ms"] = statistics.median(query_ms)
    # Every daemon has been waited for, and the timed one holds the
    # most records, so the children's peak is the timed daemon's.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["extra"].update({
        "queries": len(query_ms), "submits": len(submit_ms),
        "query_p99_ms": percentile(query_ms, 99),
        "submit_p50_ms": statistics.median(submit_ms),
        "submit_p90_ms": percentile(submit_ms, 90)})
    if traced:
        import json
        with open(trace_out) as fh:
            daemon_layers = json.load(fh)
        counters = stats["counters"]
        layers = dict(daemon_layers)
        layers.update({
            "randgen.generate_s": generate_s,
            "store.records": stats["store"]["records"],
            "serve.batches": counters["batches"],
            "serve.tests_per_batch": (counters["batched_tests"]
                                      / counters["batches"]
                                      if counters["batches"] else 0.0),
            "serve.served_from_store": counters["served_from_store"],
        })
        result["layers"] = layers
    return result


def serve_daemon(trace_out: str, spans: str, argv: List[str]) -> int:
    """Run ``repro`` ``argv`` with the store, serve and campaign layers
    traced; on exit, write the per-layer figures to ``trace_out`` and
    the spans to ``spans``."""
    import json

    import repro.serve.server as server
    from repro import cli
    from repro.store import VerdictStore

    tracer = Tracer()
    counts: Dict = {}
    install_litmus_layers(tracer, counts)
    tracer.wrap(server, "run_campaign", "campaign")
    tracer.wrap(VerdictStore, "get", "store.get")
    tracer.wrap(VerdictStore, "put", "store.put")
    tracer.wrap(VerdictStore, "save", "store.save")
    code = cli.main(argv)
    layers = litmus_layer_metrics(tracer, counts)
    layers.update({
        "store.get_s": tracer.self_s("store.get"),
        "store.put_s": tracer.self_s("store.put"),
        "store.save_s": tracer.self_s("store.save"),
        "serve.batch_campaign_s": tracer.total_s("campaign"),
    })
    tracer.write(spans)
    with open(trace_out, "w") as fh:
        json.dump(layers, fh)
    return code
