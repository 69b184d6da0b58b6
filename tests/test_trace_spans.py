"""The benchmark's probes find the qkmeans names they measure.

``bench/spans.py`` wraps module attributes such as ``clustering.simulate``,
and ``bench/probe.py kernel`` times ``qkmeans.simulator`` functions; a
rename in qkmeans would leave a span empty, or the kernel metrics absent,
without any error.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qkmeans import circuits, clustering, metrics
from reference_impls import measure_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_bench("spans")
    declared = {span for _, _, span in spans.WRAPPED}
    present = spans.present_spans({"clustering": clustering,
                                   "metrics": metrics})
    assert present == declared, sorted(declared - present)


def test_kernel_probe_times_the_simulator(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # probe imports its siblings
    probe = load_bench("probe")
    monkeypatch.setattr(probe, "KERNEL_SIZES", ((4, 1),))
    probe.kernel()
    timings = json.loads(capsys.readouterr().out)
    assert timings.get("q4", 0.0) > 0.0, timings


@pytest.mark.parametrize("records, centroids", [
    ((5, 1, 4), (3, 4)),  # q1:k rows
    ((6, 4), (3, 4)),     # qM:k
])
def test_simulate_counts_follow_the_gate_list(records, centroids):
    """The benchmark counts a plan's gates with ``len(plan.gates)``; that
    must stay the gate count ``circuit_stats`` reports."""
    spans = load_bench("spans")
    rng = np.random.default_rng(0)
    plan = circuits.build_qc3(rng.uniform(0.1, 3.0, records),
                              rng.uniform(0.1, 3.0, centroids))
    tracer = spans.Tracer(circuits)
    tracer._count_simulate((plan,), None, None)
    gates = circuits.circuit_stats(plan).gate_count
    assert tracer.counts["simulator.gates"] == gates
    assert tracer.counts["simulator.amp_updates"] == gates << plan.num_qubits


def test_decode_fallbacks_count_the_empty_slots():
    """A batched qM:k decode returns one flat label list; the benchmark's
    fallback counter must count every None in it."""
    spans = load_bench("spans")
    rng = np.random.default_rng(1)
    records = rng.uniform(0.1, 3.0, (3, 4, 4))
    records[2, 3] = 0.0  # the short last batch's empty slot
    plan = circuits.build_qc3(records, rng.uniform(0.1, 3.0, (3, 4)))
    hist = measure_reference(circuits.simulate(plan), 4, 7)
    labels = circuits.decode_qc3(plan, hist)
    assert len(labels) == 12 and None in labels
    tracer = spans.Tracer(circuits)
    tracer._count_decode((plan, hist), labels, None)
    assert tracer.counts["circuits.decode.fallbacks"] == labels.count(None)


def _weight(hist, conditions):
    """Total weight of the outcomes whose (qubit, bit) conditions all
    hold, read straight off the dense weights with bit masks."""
    basis = np.arange(hist.weights.shape[-1])
    keep = np.ones(basis.shape, dtype=bool)
    for qubit, bit in conditions:
        keep &= (basis >> qubit) & 1 == bit
    return float(hist.weights[..., keep].sum())


def test_estimate_counts_the_register_postselection():
    """The QC1 kept counter reads ``Histogram.postselect`` and the retry
    counter ``circuits.EstimationFailure``, both through getattr defaults;
    a rename would zero them without an error."""
    spans = load_bench("spans")
    rng = np.random.default_rng(2)
    plan = circuits.build_qc3(rng.uniform(0.1, 3.0, (5, 1, 4)),
                              rng.uniform(0.1, 3.0, (5, 1, 4)))
    hist = measure_reference(circuits.simulate(plan), 64, 3)
    result = circuits.estimate_distance(plan, hist)
    tracer = spans.Tracer(circuits)
    tracer._count_estimate((plan, hist), result, None)
    kept = _weight(hist, [(plan.layout.register, 1)])
    assert 0 < kept < 5 * 64
    assert tracer.counts["circuits.decode.kept"] == kept
    assert tracer.counts["circuits.decode.requested"] == 5 * 64
    assert tracer.counts["circuits.decode.retries"] == 0
    tracer._count_estimate((plan, hist), None,
                           circuits.EstimationFailure("empty", [0]))
    assert tracer.counts["circuits.decode.retries"] == 1


def test_decode_counts_the_assignment_postselection():
    """The QC3 kept counter reads ``circuits.assignment_histogram`` through
    a getattr default.  Every cluster and batch pattern is loaded here
    (k 2, M1 4), so the kept shots are the whole register-1/ancilla-0
    weight."""
    spans = load_bench("spans")
    rng = np.random.default_rng(4)
    plan = circuits.build_qc3(rng.uniform(0.1, 3.0, (3, 4, 4)),
                              rng.uniform(0.1, 3.0, (2, 4)))
    hist = measure_reference(circuits.simulate(plan), 256, 5)
    tracer = spans.Tracer(circuits)
    tracer._count_decode((plan, hist), circuits.decode_qc3(plan, hist), None)
    kept = _weight(hist, [(plan.layout.register, 1),
                          (plan.layout.ancilla, 0)])
    assert 0 < kept < 3 * 256
    assert tracer.counts["circuits.decode.kept"] == kept
    assert tracer.counts["circuits.decode.requested"] == 3 * 256
