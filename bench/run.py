"""qkmeans benchmark: times the paper's cluster-assignment workloads through
the public qkmeans API, checks each result against an oracle, and prints
every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds information only (machine facts, result digest, oracle self-check).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split from a separate traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from source import prepare_process

BENCH_DIR = Path(__file__).resolve().parent
# q11 iterations ran 0.25 s cold and settled near 0.145 s after about 3 s.
WARMUP_S = 3.0
SETUP_PROBES = 9
# A bare interpreter that imports numpy started in this many seconds, the
# median on the 2-core x86 host the bounds were set on; it scales setup_s.
SPAWN_NOMINAL_S = 0.2
PROBE_TIMEOUT_S = 120
MAX_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return done.stdout.strip().splitlines()[-1]


def _spawn_seconds() -> float:
    """Seconds to start a bare interpreter that imports numpy: start-up
    work that is the host's and not the program's."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=PROBE_TIMEOUT_S)
    return time.monotonic() - start


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time at nominal host speed, and the raw median.

    A probe is a fresh interpreter timed from process start to inputs ready:
    imports plus dataset load or generation.  Each probe's seconds are
    divided by the mean time of a bare start just before and after it, and
    scaled by SPAWN_NOMINAL_S; the median over the probes is reported."""
    scaled, raw = [], []
    before = _spawn_seconds()
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        took = float(_probe("setup", workload, str(seed))) - spawned
        after = _spawn_seconds()
        raw.append(took)
        scaled.append(took / (0.5 * (before + after)) * SPAWN_NOMINAL_S)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on the lowest CPU it may use, so
    that each time and the reference it is divided by run on one core.
    Returns the number of CPUs it could use before."""
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Timed:
    """One call's time: raw seconds, and the same in units of the host
    reference measured around each of its steps."""

    seconds: float
    relative: float
    results: list | None


class Runner:
    """Runs a workload's calls, checks every result and keeps the tally."""

    def __init__(self, workload, modules: dict, reference):
        self.workload = workload
        self.modules = modules
        self.reference = reference
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.first_counts: dict[int, dict] = {}

    def _fail(self, runs: int, message: str) -> None:
        self.failed += runs
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def _reference(self) -> float:
        seconds = self.reference.seconds()
        self.reference_s.append(seconds)
        return seconds

    def _step(self, params, tracer):
        if tracer is None:
            return self.workload.run_step(params)
        with spans.traced(tracer, self.modules):
            return self.workload.run_step(params)

    def call(self, i: int, tracer=None) -> Timed:
        """Run call ``i`` step by step (traced when given a tracer), with
        the host reference timed before, between and after the steps; then
        check the results.  ``results`` is None if a step raised."""
        i %= len(self.workload.calls)
        steps = self.workload.calls[i]
        self.attempted += len(steps)
        seconds = relative = 0.0
        results = []
        before = self._reference()
        try:
            for params in steps:
                start = time.perf_counter()
                results.append(self._step(params, tracer))
                took = time.perf_counter() - start
                after = self._reference()
                seconds += took
                relative += took / (0.5 * (before + after))
                before = after
        except Exception:  # a failed run is counted, and the benchmark goes on
            self._fail(len(steps), f"call {i} raised:\n{traceback.format_exc()}")
            return Timed(seconds, relative, None)

        for params, result in zip(steps, results):
            reason = self.workload.check(params, result)
            if reason is not None:
                self._fail(1, f"call {i}, k={params.k}, seed={params.seed}: "
                              f"{reason}")
        got = self.workload.digest(results)
        if self.first_digest.setdefault(i, got) != got:
            self._fail(len(steps), f"call {i} gave other labels on a repeat")
        if tracer is not None:
            counts = tracer.deterministic()
            if self.first_counts.setdefault(i, counts) != counts:
                self._fail(len(steps), f"call {i} gave other counts on a repeat")
        return Timed(seconds, relative, results)

    def result_digest(self) -> str:
        joined = "".join(self.first_digest[i] for i in sorted(self.first_digest))
        return hashlib.sha256(joined.encode()).hexdigest()


def warm_up(runner: Runner, tracer=None) -> dict:
    """Untimed calls until WARMUP_S has passed; the first (traced when a
    tracer is given) also feeds the oracle self-check."""
    until = time.perf_counter() + WARMUP_S
    results = runner.call(0, tracer).results
    caught = ({} if results is None
              else runner.workload.self_check(0, results))
    while time.perf_counter() < until:
        runner.call(0)
    return caught


def measure(runner: Runner, seconds: float, tracers=None):
    """Timed calls, cycling through the workload's calls, for ``seconds``
    and at least one full pass.  Given a list of tracers, each call runs
    untraced and then traced, and a tracer per traced call is appended.
    Returns the untraced and the traced calls' times."""
    untraced, traced = [], []
    n_calls = len(runner.workload.calls)
    started = time.perf_counter()
    i = 0
    while i < n_calls or time.perf_counter() - started < seconds:
        untraced.append(runner.call(i))
        if tracers is not None:
            tracers.append(spans.Tracer(runner.modules["circuits"]))
            traced.append(runner.call(i, tracers[-1]))
        i += 1
    return untraced, traced


def layer_metrics(runner, tracers, warm_tracer, untraced, traced, present,
                  kernel) -> dict:
    """The per-layer metrics: self seconds per traced call, counts over the
    first traced pass through the calls (fixed for a seed), the first
    simulate's peak RSS, the tracing overhead and the kernel sweep."""
    n_calls = len(runner.workload.calls)
    first_pass = tracers[:n_calls]

    def total(attr: str, key: str) -> float:
        return sum(getattr(t, attr).get(key, 0) for t in first_pass)

    def self_s(span: str) -> float:
        return sum(t.self_s.get(span, 0.0) for t in tracers) / len(tracers)

    kept = total("counts", "circuits.decode.kept")
    requested = total("counts", "circuits.decode.requested")
    rows = {f"{span}.self_s": (span, self_s(span), "s")
            for span in dict.fromkeys(span for _, _, span in spans.WRAPPED)}
    rows.update({
        "simulator.simulate.calls": (
            "simulator.simulate", total("calls", "simulator.simulate"), "count"),
        "simulator.gates": (
            "simulator.simulate", total("counts", "simulator.gates"), "count"),
        "simulator.max_qubits": (
            "simulator.simulate",
            max(t.counts.get("simulator.max_qubits", 0) for t in first_pass),
            "qubits"),
        "simulator.amp_updates": (
            "simulator.simulate", total("counts", "simulator.amp_updates"),
            "count"),
        "simulator.measure.shots": (
            "simulator.measure", total("counts", "simulator.measure.shots"),
            "count"),
        "circuits.build.calls": (
            "circuits.build", total("calls", "circuits.build"), "count"),
        "circuits.decode.kept_frac": (
            "circuits.decode", kept / requested if requested else None,
            "fraction"),
        "circuits.decode.retries": (
            "circuits.decode", total("counts", "circuits.decode.retries"),
            "count"),
        "circuits.decode.fallbacks": (
            "circuits.decode", total("counts", "circuits.decode.fallbacks"),
            "count"),
        "clustering.seed.calls": (
            "clustering.seed", total("calls", "clustering.seed"), "count"),
        "simulator.peak_rss_mib": (
            "simulator.simulate", warm_tracer.first_simulate_rss_mib,
            "MiB"),
        "trace.overhead_frac": (
            None,
            statistics.median(t.relative for t in traced)
            / statistics.median(t.relative for t in untraced) - 1.0,
            "fraction"),
    })
    for qubits in (16, 20, 22):
        rows[f"simulator.kernel_gate_s.q{qubits}"] = (
            None, kernel.get(f"q{qubits}"), "s")
    rows["simulator.kernel_peak_rss_mib.q22"] = (
        None, kernel.get("peak_rss_mib"), "MiB")

    out = {}
    for name, (span, value, unit) in rows.items():
        if value is not None and (span is None or span in present):
            out[name] = metric(value, unit)
        else:  # the layer function it is measured through no longer exists
            out[name] = dict(metric(0, unit), absent=True)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_process()
    nproc = pin_to_one_cpu()
    import numpy as np

    from qkmeans import circuits, clustering, metrics

    import workloads
    from hostspeed import HostReference

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    modules = {"clustering": clustering, "metrics": metrics,
               "circuits": circuits}
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed), modules,
                    HostReference())

    if args.trace:
        warm_tracer = spans.Tracer(circuits)
        caught = warm_up(runner, warm_tracer)
        tracers = []
        untraced, traced = measure(runner, args.seconds, tracers)
        kernel = json.loads(_probe("kernel"))
        result_metrics = layer_metrics(
            runner, tracers, warm_tracer, untraced, traced,
            spans.present_spans(modules), kernel)
    else:
        setup_s, setup_raw_s = setup_seconds(args.workload, args.seed)
        caught = warm_up(runner)
        untraced, _ = measure(runner, args.seconds)
        result_metrics = {
            "wall_rel": metric(
                statistics.median(t.relative for t in untraced), "ref"),
            "assign_per_ref": metric(statistics.median(
                runner.workload.assignments(t.results) / t.relative
                if t.results is not None else 0.0 for t in untraced), "1/ref"),
            "peak_rss_mib": metric(spans.peak_rss_mib(), "MiB"),
            "setup_s": metric(setup_s, "s"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timed_calls": len(untraced),
        "wall_s": statistics.median(t.seconds for t in untraced),
        "reference_s": statistics.median(runner.reference_s),
        "setup_raw_s": None if args.trace else setup_raw_s,
        "fail_frac": runner.failed / runner.attempted,
        "digest": runner.result_digest(),
        "oracle_self_check": caught,
        "problems": runner.problems,
    }
    print(json.dumps({"info": info}))
    correct = runner.failed == 0 and bool(caught) and all(caught.values())
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
