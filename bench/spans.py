"""Self-timed spans around the calls into each qkmeans layer.

``clustering.py`` imports the layer functions by name, so the wrappers go
on the attributes of ``qkmeans.clustering`` and ``qkmeans.metrics`` where
those names are looked up; patching ``qkmeans.circuits.simulate`` would
intercept nothing.  A span's self time excludes its wrapped children, and
counters run after the span's clock stops, outside every open span.
"""

from __future__ import annotations

import resource
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span): the functions each layer is timed through.
WRAPPED = (
    ("clustering", "simulate", "simulator.simulate"),
    ("clustering", "measure", "simulator.measure"),
    ("clustering", "build_qc1", "circuits.build"),
    ("clustering", "build_qc2", "circuits.build"),
    ("clustering", "build_qc3", "circuits.build"),
    ("clustering", "estimate_distance", "circuits.decode"),
    ("clustering", "decode_qc2", "circuits.decode"),
    ("clustering", "decode_qc3", "circuits.decode"),
    ("clustering", "derive_seed", "clustering.seed"),
    ("clustering", "prepare_vectors", "encoding.prepare"),
    ("clustering", "recover_distance", "encoding.recover"),
    ("clustering", "_update_centroids", "clustering.update"),
    ("clustering", "run", "clustering.run"),
    ("metrics", "summarize_run", "metrics"),
    ("metrics", "pair_confusion", "metrics"),
    ("metrics", "sse", "metrics"),
    ("metrics", "silhouette", "metrics.silhouette"),
)


def peak_rss_mib() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024


def present_spans(modules: dict) -> set[str]:
    """Spans with at least one wrapped name still defined."""
    return {span for module, attr, span in WRAPPED
            if hasattr(modules[module], attr)}


class Tracer:
    """Per-span self seconds and calls, plus the counters of one traced
    stretch of work."""

    def __init__(self, circuits_module):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.first_simulate_rss_mib: float | None = None
        self._open: list[list[float]] = []  # child seconds of each open span
        self._circuits = circuits_module
        self._counters = {  # by wrapped attribute
            "simulate": self._count_simulate,
            "measure": self._count_measure,
            "estimate_distance": self._count_estimate,
            "decode_qc2": self._count_decode,
            "decode_qc3": self._count_decode,
        }

    def deterministic(self) -> dict:
        """Calls and counts, which repeat exactly for a given seed."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}

    def wrap(self, attr: str, span: str, fn):
        counter = self._counters.get(attr)

        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # re-raised below, after counting
                result, error = None, exc
            self.self_s[span] += perf_counter() - start - children[0]
            self._open.pop()
            self.calls[span] += 1
            if counter is not None:
                counter(args, result, error)
            if self._open:
                self._open[-1][0] += perf_counter() - start
            if error is not None:
                raise error
            return result

        return wrapper

    def _count_simulate(self, args, result, error):
        plan = args[0]
        gates, qubits = len(plan.gates), plan.num_qubits
        self.counts["simulator.gates"] += gates
        self.counts["simulator.amp_updates"] += gates << qubits
        self.counts["simulator.max_qubits"] = max(
            self.counts["simulator.max_qubits"], qubits)
        if self.first_simulate_rss_mib is None:
            self.first_simulate_rss_mib = peak_rss_mib()

    def _count_measure(self, args, result, error):
        self.counts["simulator.measure.shots"] += getattr(args[1], "shots", 0)

    def _count_estimate(self, args, result, error):
        """QC1: kept shots are those surviving the register post-selection
        that ``estimate_distance`` applies."""
        plan, hist = args
        self._count_retry(error)
        self.counts["circuits.decode.kept"] += hist.postselect(
            [(plan.layout.register, 1)]).shots
        self.counts["circuits.decode.requested"] += hist.shots

    def _count_decode(self, args, result, error):
        """QC2/QC3: kept shots are the meaningful ones the decoders vote
        with; a QC3 slot left without shots is a fallback."""
        plan, hist = args
        self._count_retry(error)
        histogram = getattr(self._circuits, "assignment_histogram", None)
        if histogram is not None:
            self.counts["circuits.decode.kept"] += histogram(plan, hist).kept_shots
            self.counts["circuits.decode.requested"] += hist.shots
        if isinstance(result, list):
            self.counts["circuits.decode.fallbacks"] += result.count(None)

    def _count_retry(self, error):
        if isinstance(error, getattr(self._circuits, "EstimationFailure", ())):
            self.counts["circuits.decode.retries"] += 1


@contextmanager
def traced(tracer: Tracer, modules: dict):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(attr, span, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
