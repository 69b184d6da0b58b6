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
from qkmeans.circuits import simulate
from qkmeans.clustering import ClusteringParams
from qkmeans.data import builtin
from qkmeans.encoding import prepare_vectors, standardize
from qkmeans.simulator import Analytic, Histogram, Sampled, measure
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


@pytest.mark.parametrize("strategy, decode, m1, shots_base, shots", [
    # 8 shots per pair, so some rows are redrawn
    ("q11", circuits.estimate_distance, 1, 8, 8),
    ("q1k", circuits.decode_qc2, 1, 1024, None),  # analytic
    # 450 shots per circuit of 150 records, so most slots fall back
    ("qmk", circuits.decode_qc3, 150, 1, 450),
])
def test_traced_pass_counts_what_a_fresh_measure_gives(strategy, decode, m1,
                                                       shots_base, shots):
    """``measure`` squares the pass's state in place, with ``out`` by
    keyword, so the benchmark still reads the mode as ``args[1]``; and the
    kept, requested, fallback and retry counts of one traced pass equal
    those of each plan's decode replayed on a fresh
    ``measure(simulate(plan), Analytic())``."""
    spans = load_bench("spans")
    modes = []

    class Recording(spans.Tracer):
        def _count_measure(self, args, result, error):
            modes.append((len(args), args[1]))
            super()._count_measure(args, result, error)

    data = standardize(builtin("iris").matrix)
    params = ClusteringParams(k=3, assignment=strategy, shots_base=shots_base,
                              m1=m1, analytic=shots is None, seed=5)
    assign = getattr(clustering, f"assign_{strategy}")
    plans = []
    tracer = Recording(circuits)
    with spans.traced(tracer, {"clustering": clustering, "metrics": metrics}):
        assign(prepare_vectors(data), prepare_vectors(data[[0, 60, 120]]),
               params, 1, plans)
    assert plans and all(n == 2 and isinstance(mode, Analytic)
                         for n, mode in modes)
    assert len(modes) == len(plans)

    replay = spans.Tracer(circuits)
    count = (replay._count_estimate if decode is circuits.estimate_distance
             else replay._count_decode)
    rng, retry_rng = (np.random.default_rng(clustering.derive_seed(
        params.seed, domain, 1)) for domain in (clustering.SeedDomain.ASSIGN,
                                                clustering.SeedDomain.RETRY))
    sampled = None if shots is None else Sampled(shots, rng)
    for plan in plans:
        hist = measure(simulate(plan), Analytic())
        try:
            count((plan, hist), decode(plan, hist, sampled=sampled), None)
        except circuits.EstimationFailure as failure:  # as _assign_rows redraws
            count((plan, hist), None, failure)
            redrawn = Histogram(hist.weights[failure.rows])
            count((plan, redrawn), decode(plan, redrawn, sampled=Sampled(
                clustering.REDRAW_FACTOR * shots, retry_rng)), None)
    names = [f"circuits.decode.{n}"
             for n in ("kept", "requested", "fallbacks", "retries")]
    assert ({n: tracer.counts[n] for n in names}
            == {n: replay.counts[n] for n in names})
    assert replay.counts["circuits.decode.kept"] > 0
