import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmeans.circuits import (
    CircuitPlan,
    EstimationFailure,
    assignment_histogram,
    build_qc3,
    circuit_layout,
    circuit_stats,
    decode_qc2,
    decode_qc3,
    estimate_distance,
    postselection_probability,
    simulate,
)
from qkmeans.encoding import prepare_vectors, recover_distance
from qkmeans.simulator import (
    Analytic,
    Histogram,
    Sampled,
    h,
    measure,
)
from reference_impls import (
    GatePlan,
    build_qc1_reference,
    build_qc2_reference,
    build_qc3_reference,
    circuit_stats_reference,
    marginal_reference,
    measure_reference,
)


def unit_rows(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def angles_of(rows):
    return 2.0 * np.arcsin(np.clip(rows, -1.0, 1.0))


def qc1(record, centroid):
    """QC1: one record against one centroid, or (B, slots) rows of each."""
    return build_qc3(np.asarray(record)[..., None, :],
                     np.asarray(centroid)[..., None, :])


def qc2(record, centroids):
    """QC2: one record, or (B, slots) record rows, against all centroids."""
    return build_qc3(np.asarray(record)[..., None, :], centroids)


def histogram_of(num_qubits, counts):
    """A dense histogram with the given {basis: weight} entries."""
    weights = np.zeros(1 << num_qubits)
    for basis, weight in counts.items():
        weights[basis] = weight
    return Histogram(weights)


class TestBuildQc1:
    def test_qubit_count(self):
        plan = qc1(np.zeros(2), np.zeros(2))
        assert plan.num_qubits == 3

    def test_gate_count_formula(self):
        rng = np.random.default_rng(0)
        record, centroid = unit_rows(rng, 2, 4)
        centroid[1] = 0.0  # force a zero angle slot
        centroid /= np.linalg.norm(centroid)
        ra, ca = angles_of(record), angles_of(centroid)
        plan = qc1(ra, ca)
        nonzero = np.count_nonzero(ra) + np.count_nonzero(ca)
        assert len(plan.gates) == 2 + 2 + nonzero

    def test_iris_shape(self):
        # 3 standardized features -> 4 projected dims -> 2 index qubits
        plan = qc1(np.zeros(4), np.zeros(4))
        assert plan.num_qubits == 4

    def test_angle_length_mismatch(self):
        with pytest.raises(ValueError):
            qc1(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):  # not a power of two
            qc1(np.zeros(3), np.zeros(3))


class TestEstimateDistance:
    def run_pair(self, x, y):
        plan = qc1(angles_of(x), angles_of(y))
        return estimate_distance(plan, measure(simulate(plan), Analytic()))

    def test_identical_vectors(self):
        rng = np.random.default_rng(1)
        x = unit_rows(rng, 1, 4)[0]
        d = self.run_pair(x, x)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_vectors(self):
        d = self.run_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_antipodal_vectors(self):
        x = np.array([0.6, 0.8])
        d = self.run_pair(x, -x)
        assert d == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed, records, centroids", [
        # one circuit whose a0 + a1 rounds apart from the basis-order sum
        (3, (1, 4), (1, 4)),
        (450, (450, 1, 4), (450, 1, 4)),  # a batch, the q11 workload's pass
        (150, (150, 1, 1, 4), (3, 1, 4)),  # a q1:1 grid, row r * k + j
    ])
    def test_analytic_decode_reads_the_two_cells(self, seed, records,
                                                 centroids):
        """Analytic weights decode to sqrt(max(0, 4 - 4 a0 / (a0 + a1))),
        byte for byte, over the two cells a sampled decode draws over:
        register 1 with ancilla 0 (a0) and with ancilla 1 (a1), each summed
        over the index register in basis order."""
        rng = np.random.default_rng(seed)
        plan = build_qc3(rng.uniform(-3.0, 3.0, records),
                         rng.uniform(-3.0, 3.0, centroids))
        probs = measure(simulate(plan), Analytic()).weights
        kept = 1 << plan.layout.register  # index qubits follow the ancilla
        a0, a1 = (functools.reduce(np.add, (probs[..., kept | i << 1 | a]
                                            for i in range(4)))
                  for a in (0, 1))
        want = np.sqrt(np.maximum(0.0, 4.0 - 4.0 * (a0 / (a0 + a1))))
        got = estimate_distance(plan, Histogram(probs))
        assert np.shape(got) == probs.shape[:-1]
        assert np.asarray(got).tobytes() == want.tobytes()

    def test_zero_kept_shots(self):
        plan = qc1(np.zeros(2), np.zeros(2))
        empty = histogram_of(plan.num_qubits, {0: 100})  # register bit 0 only
        with pytest.raises(EstimationFailure):
            estimate_distance(plan, empty)

    def test_matches_true_distance(self):
        rng = np.random.default_rng(2)
        for dim in (2, 4, 8):
            for _ in range(10):
                x, y = unit_rows(rng, 2, dim)
                d = self.run_pair(x, y)
                assert d == pytest.approx(float(np.linalg.norm(x - y)),
                                          abs=1e-9)

    def test_sampled_convergence(self):
        # 2^15 shots: |d_hat - d| <= 0.1 on at least 95% of random instances
        rng = np.random.default_rng(3)
        hits = 0
        for i in range(100):
            x, y = unit_rows(rng, 2, 4)
            plan = qc1(angles_of(x), angles_of(y))
            d_hat = estimate_distance(
                plan, measure_reference(simulate(plan), 2 ** 15, 1000 + i))
            if abs(d_hat - float(np.linalg.norm(x - y))) <= 0.1:
                hits += 1
        assert hits >= 95


class TestBuildQc2:
    def test_qubit_count(self):
        plan = qc2(np.zeros(2), np.zeros((2, 2)))
        assert plan.num_qubits == 4

    def test_class_probabilities(self):
        # record == centroid 0, centroid 1 orthogonal:
        # P(cluster 0 | kept) = 2/3, P(cluster 1 | kept) = 1/3
        e1, e2 = np.eye(2)
        plan = qc2(angles_of(e1), angles_of(np.vstack([e1, e2])))
        buckets = assignment_histogram(plan,
                                       measure(simulate(plan), Analytic()))
        weights = buckets.counts[0]
        total = weights[0] + weights[1]
        assert weights[0] / total == pytest.approx(2 / 3, abs=1e-12)
        assert weights[1] / total == pytest.approx(1 / 3, abs=1e-12)
        assert decode_qc2(plan, measure(simulate(plan), Analytic())) == 0


class TestDecodeQc2:
    def make_plan(self, k=3):
        layout = circuit_layout(2, clusters=4)
        return CircuitPlan(layout, np.zeros((1, 2)), np.zeros((4, 2)),
                           num_clusters=k)

    def hist(self, plan, cluster_counts):
        # counts placed at register=1, ancilla=0, index=0
        layout = plan.layout
        counts = {}
        for j, c in cluster_counts.items():
            basis = 1 << layout.register
            for b, qb in enumerate(layout.cluster):
                basis |= ((j >> b) & 1) << qb
            counts[basis] = c
        return histogram_of(layout.num_qubits, counts)

    def test_tie_breaks_low(self):
        plan = self.make_plan(k=2)
        assert decode_qc2(plan, self.hist(plan, {0: 50, 1: 50})) == 0

    def test_meaningless_pattern_dropped(self):
        plan = self.make_plan(k=3)
        # all meaningful counts on cluster 2; pattern 3 is heavier but invalid
        assert decode_qc2(plan, self.hist(plan, {2: 10, 3: 99})) == 2

    def test_no_kept_shots(self):
        plan = self.make_plan(k=3)
        with pytest.raises(EstimationFailure):
            decode_qc2(plan, self.hist(plan, {3: 99}))


class TestBuildQc3:
    def test_blobs3_shape(self):
        # 16 two-dimensional records (3 projected dims -> 4 slots), k=2
        plan = build_qc3(np.zeros((16, 4)), np.zeros((2, 4)))
        assert plan.num_qubits == 1 + 2 + 4 + 1 + 1

    def test_degenerate_reduces_to_qc1(self):
        rng = np.random.default_rng(4)
        x, c = unit_rows(rng, 2, 4)
        plan3 = build_qc3(angles_of(x[None]), angles_of(c[None]))
        plan1 = qc1(angles_of(x), angles_of(c))
        assert plan3.num_qubits == plan1.num_qubits
        assert len(plan3.gates) == len(plan1.gates)
        d3 = estimate_distance(plan3, measure(simulate(plan3), Analytic()))
        d1 = estimate_distance(plan1, measure(simulate(plan1), Analytic()))
        assert d3 == pytest.approx(d1, abs=1e-12)

    def test_gate_count_scales_with_loads(self):
        rng = np.random.default_rng(5)
        records = unit_rows(rng, 8, 4)
        centroids = unit_rows(rng, 2, 4)
        plan = build_qc3(angles_of(records), angles_of(centroids))
        encoding_gates = len(plan.gates) - 2 - (2 + 3 + 1)
        assert encoding_gates == np.count_nonzero(angles_of(records)) + \
            np.count_nonzero(angles_of(centroids))


class TestDecodeQc3:
    def test_records_at_their_centroids(self):
        centroids = np.vstack([np.eye(4)[0], np.eye(4)[1]])
        plan = build_qc3(angles_of(centroids), angles_of(centroids))
        assert decode_qc3(plan, measure(simulate(plan), Analytic())) == [0, 1]

    def test_meaningless_batch_slot_discarded(self):
        rng = np.random.default_rng(6)
        records = unit_rows(rng, 3, 4)
        centroids = unit_rows(rng, 2, 4)
        plan = build_qc3(angles_of(records), angles_of(centroids))
        hist = measure(simulate(plan), Analytic())
        buckets = assignment_histogram(plan, hist)
        assert buckets.counts.shape == (3, 2)
        assert buckets.kept_shots < hist.shots
        labels = decode_qc3(plan, hist)
        assert len(labels) == 3

    def test_counts_are_the_postselected_marginal(self):
        rng = np.random.default_rng(17)
        plan = build_qc3(angles_of(unit_rows(rng, 3, 4)),
                         angles_of(unit_rows(rng, 3, 4)))
        layout = plan.layout
        hist = measure(simulate(plan), Analytic())
        kept = hist.postselect([(layout.register, 1), (layout.ancilla, 0)])
        marginal = marginal_reference(kept, layout.batch + layout.cluster)
        cells = marginal.weights.reshape(4, 4)  # (cluster, batch)
        counts = assignment_histogram(plan, hist).counts
        assert counts == pytest.approx(cells[:3, :3].T, rel=1e-12)

    def test_unassigned_record_is_none(self):
        plan = build_qc3(np.zeros((2, 4)), np.zeros((2, 4)))
        # histogram whose kept counts only cover record slot 0
        layout = plan.layout
        basis = 1 << layout.register
        hist = histogram_of(layout.num_qubits, {basis: 10})
        assert decode_qc3(plan, hist) == [0, None]

    def test_uniform_tie_gives_zero(self):
        layout = circuit_layout(2, records=2, clusters=2)
        plan = CircuitPlan(layout, np.zeros((2, 2)), np.zeros((2, 2)),
                           num_records=1, num_clusters=2)
        b0 = 1 << layout.register
        b1 = b0 | (1 << layout.cluster[0])
        hist = histogram_of(layout.num_qubits, {b0: 7, b1: 7})
        assert decode_qc3(plan, hist) == [0]

    def test_batched_is_the_row_decodes_concatenated(self):
        # 3 rows of 3 records (the last with an empty slot) against shared
        # centroids; 4 shots per row leave some slots without a kept shot
        rng = np.random.default_rng(21)
        records = angles_of(unit_rows(rng, 9, 4)).reshape(3, 3, 4)
        records[2, 2] = 0.0
        centroids = angles_of(unit_rows(rng, 2, 4))
        plan = build_qc3(records, centroids)
        hist = measure_reference(simulate(plan), 4, 3)
        rng = np.random.default_rng(3)  # the rows' draws, one by one
        want = []
        for row in records:
            single = build_qc3(row, centroids)
            want += decode_qc3(single, measure_reference(simulate(single), 4,
                                                         rng))
        got = decode_qc3(plan, hist)
        assert got == want
        assert None in got


class TestOracleEquivalence:
    def test_qc2_qc3_match_classical_argmin(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            dim = int(rng.choice([2, 4, 8]))
            k = int(rng.integers(2, 5))
            m1 = int(rng.integers(1, 9))
            records = unit_rows(rng, m1, dim)
            centroids = unit_rows(rng, k, dim)
            dists = np.linalg.norm(
                records[:, None, :] - centroids[None, :, :], axis=2)
            order = np.sort(dists, axis=1)
            if np.min(order[:, 1] - order[:, 0]) < 1e-9:
                continue
            checked += 1
            want = np.argmin(dists, axis=1)
            plan3 = build_qc3(angles_of(records), angles_of(centroids))
            hist3 = measure(simulate(plan3), Analytic())
            assert decode_qc3(plan3, hist3) == list(want)
            for v in range(m1):
                plan2 = qc2(angles_of(records[v]), angles_of(centroids))
                hist2 = measure(simulate(plan2), Analytic())
                assert decode_qc2(plan2, hist2) == want[v]

    def test_qc3_conditionals_match_qc2(self):
        rng = np.random.default_rng(8)
        records = unit_rows(rng, 3, 4)
        centroids = unit_rows(rng, 3, 4)
        plan3 = build_qc3(angles_of(records), angles_of(centroids))
        buckets3 = assignment_histogram(
            plan3, measure(simulate(plan3), Analytic()))
        for v in range(3):
            plan2 = qc2(angles_of(records[v]), angles_of(centroids))
            buckets2 = assignment_histogram(
                plan2, measure(simulate(plan2), Analytic()))
            w3, w2 = buckets3.counts[v], buckets2.counts[0]
            assert w3 / w3.sum() == pytest.approx(w2 / w2.sum(), abs=1e-10)

    def test_ancilla_rate_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            records = unit_rows(rng, 1, 4)
            centroids = unit_rows(rng, 3, 4)
            plan = qc2(angles_of(records[0]), angles_of(centroids))
            p_r1 = postselection_probability(plan)
            kept = assignment_histogram(
                plan, measure(simulate(plan), Analytic()))
            p_a0_given_r1 = kept.kept_shots / p_r1
            assert 0.0 < p_a0_given_r1 <= 1.0


class TestPostselectionProbability:
    def test_qc1_unit_vectors(self):
        rng = np.random.default_rng(10)
        for dim in (2, 4, 8):
            x, y = unit_rows(rng, 2, dim)
            n_index = int(math.log2(dim))
            plan = qc1(angles_of(x), angles_of(y))
            assert postselection_probability(plan) == pytest.approx(
                0.5 ** n_index, abs=1e-12)

    def test_qc3_power_of_two_exact(self):
        rng = np.random.default_rng(11)
        records = unit_rows(rng, 4, 4)
        centroids = unit_rows(rng, 2, 4)
        plan = build_qc3(angles_of(records), angles_of(centroids))
        assert postselection_probability(plan) == pytest.approx(0.25,
                                                                abs=1e-10)

    def test_qc3_partial_batch_is_lower(self):
        rng = np.random.default_rng(12)
        records = unit_rows(rng, 3, 4)
        centroids = unit_rows(rng, 2, 4)
        plan = build_qc3(angles_of(records), angles_of(centroids))
        assert postselection_probability(plan) < 0.25 - 1e-6

    def test_batched_plan_gives_one_per_row(self):
        rng = np.random.default_rng(13)
        records = angles_of(rng.uniform(-1.0, 1.0, (3, 1, 4)))
        centroids = angles_of(rng.uniform(-1.0, 1.0, (2, 4)))
        batched = postselection_probability(build_qc3(records, centroids))
        singles = [postselection_probability(build_qc3(row, centroids))
                   for row in records]
        assert all(isinstance(p, float) for p in singles)
        assert len(set(singles)) == 3 and min(singles) > 0.0
        # per-row angles take np.cos where one circuit takes math.cos
        assert batched.shape == (3,)
        assert batched == pytest.approx(singles, rel=1e-12)

    def test_squares_its_state_in_place(self):
        """A 20-qubit qM:k plan, 16,384 records of 4 slots against 3
        centroids: ``measure`` squares the state where it was simulated, so
        the peak is that state, the copy that reshaping its register-1 half
        makes and what a first ``simulate`` of the plan builds: 1.63
        states.  Squaring into a fresh array peaked at 2.63."""
        rng = np.random.default_rng(14)
        plan = build_qc3(angles_of(rng.uniform(-1.0, 1.0, (1 << 14, 4))),
                         angles_of(rng.uniform(-1.0, 1.0, (3, 4))))
        assert plan.num_qubits == 20
        tracemalloc.start()
        try:
            postselection_probability(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 8 * (1 << 20)


class TestCircuitStats:
    """The reference scheduler on bare gate lists, and ``circuit_stats`` on
    a plan."""

    def test_empty_plan(self):
        plan = GatePlan(circuit_layout(4))
        stats = circuit_stats_reference(plan)
        assert (stats.qubits, stats.gate_count, stats.depth) == (4, 0, 0)

    def test_sequential_on_same_qubit(self):
        plan = GatePlan(circuit_layout(2), [h(0), h(0)])
        assert circuit_stats_reference(plan).depth == 2

    def test_parallel_on_disjoint_qubits(self):
        plan = GatePlan(circuit_layout(2), [h(0), h(1)])
        assert circuit_stats_reference(plan).depth == 1

    def test_gate_count_is_plan_length(self):
        rng = np.random.default_rng(13)
        x, y = unit_rows(rng, 2, 4)
        plan = qc1(angles_of(x), angles_of(y))
        assert circuit_stats(plan).gate_count == len(plan.gates)
        assert circuit_stats(plan).qubits == 4


class TestBatchedCircuits:
    """B circuits built from rows of angles match B single builds."""

    def test_qc1_rows_match_single_circuits(self):
        rng = np.random.default_rng(14)
        records, centroids = unit_rows(rng, 5, 4), unit_rows(rng, 5, 4)
        records[:, 3] = 0.0  # slot 3 is zero in every record row
        records[2, 1] = 0.0  # slot 1 is zero in one row only
        plan = qc1(angles_of(records), angles_of(centroids))
        assert plan.rows == 5
        assert len(plan.gates) == 2 + 2 + 3 + 4
        hist = measure(simulate(plan), Analytic())
        d = estimate_distance(plan, hist)
        for r in range(5):
            single = qc1(angles_of(records[r]), angles_of(centroids[r]))
            d1 = estimate_distance(single,
                                   measure(simulate(single), Analytic()))
            assert d[r] == d1

    def test_qc2_rows_match_single_circuits(self):
        rng = np.random.default_rng(15)
        records, centroids = unit_rows(rng, 6, 4), unit_rows(rng, 3, 4)
        plan = qc2(angles_of(records), angles_of(centroids))
        hist = measure_reference(simulate(plan), 300, 0)
        labels = decode_qc2(plan, hist)
        buckets = assignment_histogram(plan, hist)
        rng = np.random.default_rng(0)  # the rows' draws, one by one
        for r in range(6):
            single = qc2(angles_of(records[r]), angles_of(centroids))
            alone = measure_reference(simulate(single), 300, rng)
            assert labels[r] == decode_qc2(single, alone)
            assert np.array_equal(buckets.counts[r, 0],
                                  assignment_histogram(single, alone).counts[0])

    def test_failure_names_empty_rows(self):
        plan = qc1(np.zeros((3, 2)), np.zeros((3, 2)))
        weights = np.zeros((3, 8))
        weights[:, 0] = 5.0  # register = 0: nothing survives ...
        weights[1, 1 << plan.layout.register] = 5.0  # ... except in row 1
        with pytest.raises(EstimationFailure) as failure:
            estimate_distance(plan, Histogram(weights))
        assert list(failure.value.rows) == [0, 2]


class TestCountDtype:
    """A dense draw (``measure_reference``) holds int64 counts and an
    analytic histogram float64 probabilities; every decoder reads the same
    values from a histogram's counts whichever of the two dtypes holds
    them."""

    @staticmethod
    def as_float(hist):
        return Histogram(hist.weights.astype(float))

    def test_sampled_counts_are_int64(self):
        plan = qc1(np.full((2, 4), 0.5), np.full((2, 4), 1.0))
        state = simulate(plan)
        assert measure_reference(state, 64, 0).weights.dtype == np.int64
        assert measure(state, Analytic()).weights.dtype == np.float64

    def test_estimate_distance(self):
        rng = np.random.default_rng(22)
        plan = qc1(angles_of(unit_rows(rng, 6, 4)),
                   angles_of(unit_rows(rng, 6, 4)))
        hist = measure_reference(simulate(plan), 40, 1)
        assert np.array_equal(estimate_distance(plan, hist),
                              estimate_distance(plan, self.as_float(hist)))

    def test_decode_qc2(self):
        rng = np.random.default_rng(23)
        plan = qc2(angles_of(unit_rows(rng, 6, 4)),
                   angles_of(unit_rows(rng, 3, 4)))
        hist = measure_reference(simulate(plan), 400, 2)
        assert np.array_equal(decode_qc2(plan, hist),
                              decode_qc2(plan, self.as_float(hist)))

    def test_decode_qc3_and_its_histogram(self):
        rng = np.random.default_rng(24)
        plan = build_qc3(angles_of(unit_rows(rng, 6, 4)),
                         angles_of(unit_rows(rng, 3, 4)))
        hist = measure_reference(simulate(plan), 12, 3)
        labels = decode_qc3(plan, hist)
        assert None in labels  # some slots come up empty at 12 shots
        assert labels == decode_qc3(plan, self.as_float(hist))
        assert all(type(label) is int for label in labels if label is not None)
        got = assignment_histogram(plan, hist)
        want = assignment_histogram(plan, self.as_float(hist))
        assert np.array_equal(got.counts, want.counts)
        assert got.kept_shots == want.kept_shots


def dense_cells(plan, weights):
    """The cells a sampled decoder draws over, summed from dense weights by
    ``marginal_reference``: register 1 with ancilla 0 and 1 for QC1, else
    register 1 with ancilla 0 per (record slot, cluster) in (v, j) order."""
    layout = plan.layout
    qubits = [layout.ancilla, layout.register, *layout.batch, *layout.cluster]
    marginal = marginal_reference(Histogram(weights), qubits).weights
    if not (layout.batch or layout.cluster):  # QC1
        return marginal[..., [0b10, 0b11]]
    v, j = np.divmod(np.arange(plan.num_records * plan.num_clusters),
                     plan.num_clusters)
    return marginal[..., 0b10 | v << 2 | j << (2 + len(layout.batch))]


DECODERS = {"qc1": estimate_distance, "qc2": decode_qc2, "qc3": decode_qc3}


class TestCellDraws:
    """A sampled decoder draws its shots over the cells it reads plus one
    discarded category.  By the aggregation property of the multinomial
    that has the distribution of a draw over all 2^q basis states followed
    by post-selection; these tests hold the cells to the dense
    probabilities and the draws to dense draws."""

    @staticmethod
    def drawn_cells(monkeypatch, decode, plan, hist, sampled):
        """The cells ``decode`` hands to its draw and the counts drawn, one
        flat vector of each per row."""
        from qkmeans import circuits
        seen = []

        def recording(cells, mode, **kwargs):
            counts = draw(cells, mode, **kwargs)
            seen.append((cells, counts))
            return counts

        draw = circuits._draw
        with monkeypatch.context() as patch:
            patch.setattr(circuits, "_draw", recording)
            try:
                decode(plan, hist, sampled=sampled)
            except EstimationFailure:
                pass
        rows = hist.weights.shape[:-1]
        return tuple(a.reshape(rows + (-1,)) for a in seen[0])

    @pytest.mark.parametrize("decoder, records, centroids", [
        ("qc1", (450, 1, 4), (450, 1, 4)),  # the q11 workload's pass
        ("qc2", (150, 1, 4), (8, 4)),  # q1:k at the widest k of its sweep
        ("qc3", (2048, 4), (3, 4)),  # qM:k on 17 qubits, the qmk pass
    ])
    def test_cells_are_the_dense_probabilities(self, monkeypatch, decoder,
                                               records, centroids):
        """At the benchmark's shapes, each row's cells over its total
        probability are the dense normalised probabilities summed over the
        same basis states, to within 4 ulps."""
        rng = np.random.default_rng(records[0])
        plan = build_qc3(rng.uniform(-3.0, 3.0, records),
                         rng.uniform(-3.0, 3.0, centroids))
        probs = measure(simulate(plan), Analytic()).weights
        cells, _ = self.drawn_cells(monkeypatch, DECODERS[decoder], plan,
                                    Histogram(probs), Sampled(8, seed=0))
        total = probs.sum(axis=-1, keepdims=True)
        np.testing.assert_array_max_ulp(
            cells / total, dense_cells(plan, probs / total), maxulp=4)

    @pytest.mark.parametrize("decoder, records, centroids", [
        ("qc1", (5, 1, 4), (5, 1, 4)),
        ("qc2", (5, 1, 4), (3, 4)),
        ("qc3", (2, 3, 4), (3, 4)),
    ])
    def test_draws_fit_dense_draws(self, monkeypatch, decoder, records,
                                   centroids):
        """Pooled over 400 passes of 64 shots a row, the cell draws and the
        dense draws summed over the same cells fit one distribution.  The
        statistic is the two-sample chi-square sum((a - b)^2 / (a + b)),
        over every row's cells and its discarded category, with
        rows * cells degrees of freedom.  It must stay below the 99.9 %
        quantile (Wilson-Hilferty), and the same draws against the dense
        draws with their cells in reverse order must exceed it."""
        rng = np.random.default_rng(40)
        plan = build_qc3(rng.uniform(-3.0, 3.0, records),
                         rng.uniform(-3.0, 3.0, centroids))
        state = simulate(plan)
        probs = measure(state, Analytic())
        shots, passes = 64, 400
        cell_rng, dense_rng = (np.random.default_rng(s) for s in (1, 2))
        drawn = dense = 0
        for _ in range(passes):
            drawn = drawn + self.drawn_cells(
                monkeypatch, DECODERS[decoder], plan, probs,
                Sampled(shots, cell_rng))[1]
            dense = dense + dense_cells(
                plan, measure_reference(state, shots, dense_rng).weights)

        def with_discarded(counts):
            return np.concatenate(
                [counts, shots * passes - counts.sum(-1, keepdims=True)], -1)

        def statistic(a, b):
            a, b = with_discarded(a), with_discarded(b)
            both = a + b
            return float(np.sum((a - b) ** 2 / np.where(both, both, 1)))

        df = drawn.size
        z = 3.090  # the standard normal's 99.9 % quantile
        bound = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
        assert statistic(drawn, dense) < bound
        assert statistic(drawn, dense[..., ::-1]) > bound


class TestOneBuilder:
    """``build_qc3`` builds QC1 and QC2 as one-record QC3 instances; its
    gate lists equal those of the three separate reference builders, and
    ``circuit_stats`` counts them as the reference scheduler does."""

    @staticmethod
    def assert_same_plan(got, want):
        assert got.layout == want.layout
        assert (got.num_records, got.num_clusters, got.rows) == \
            (want.num_records, want.num_clusters, want.rows)
        assert len(got.gates) == len(want.gates)
        for a, b in zip(got.gates, want.gates):
            assert (a.kind, a.target, a.controls) == \
                (b.kind, b.target, b.controls)
            assert type(a.theta) is type(b.theta)
            assert np.array_equal(a.theta, b.theta)

    def test_gate_lists_match_reference_builders(self):
        rng = np.random.default_rng(16)

        def angles(*shape):
            values = rng.uniform(-np.pi, np.pi, shape)
            values[rng.random(shape) < 0.2] = 0.0
            return values

        for case in range(300):
            slots = int(rng.choice([2, 4, 8]))
            n_index = slots.bit_length() - 1
            k = int(rng.integers(1, 6))
            m1 = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 6))
            kind = case % 5
            if kind == 0:  # one QC1 circuit
                r, c = angles(slots), angles(slots)
                got, want = qc1(r, c), build_qc1_reference(r, c, n_index)
            elif kind == 1:  # QC1 rows
                r, c = angles(rows, slots), angles(rows, slots)
                got, want = qc1(r, c), build_qc1_reference(r, c, n_index)
            elif kind == 2:  # one QC2 circuit
                r, c = angles(slots), angles(k, slots)
                got = qc2(r, c)
                want = build_qc2_reference(r, c, n_index, (k - 1).bit_length())
            elif kind == 3:  # QC2 rows
                r, c = angles(rows, slots), angles(k, slots)
                got = qc2(r, c)
                want = build_qc2_reference(r, c, n_index, (k - 1).bit_length())
            else:
                r, c = angles(m1, slots), angles(k, slots)
                got = build_qc3(r, c)
                want = build_qc3_reference(r, c, n_index,
                                           (m1 - 1).bit_length(),
                                           (k - 1).bit_length())
            self.assert_same_plan(got, want)
            assert circuit_stats(got) == circuit_stats_reference(got)

        # QC2 rows with record slot 3 zero in every row and slot 2 zero
        # too, one row holding -0.0: neither column is a gate
        r, c = angles(3, 4), angles(2, 4)
        r[:, 2:] = 0.0
        r[1, 2] = -0.0
        got = qc2(r, c)
        self.assert_same_plan(got, build_qc2_reference(r, c, 2, 1))
        stats = circuit_stats(got)
        assert stats == circuit_stats_reference(got)
        rys = 2 + np.count_nonzero(c)
        assert (stats.qubits, stats.gate_count, stats.depth) == \
            (5, 4 + rys + 1, rys + 2)

    def test_rows_must_agree(self):
        with pytest.raises(ValueError):
            build_qc3(np.zeros((3, 1, 4)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):  # centroid rows without record rows
            build_qc3(np.zeros((1, 4)), np.zeros((3, 1, 4)))

    @pytest.mark.parametrize("field", ["records_angles", "centroids_angles"])
    def test_complex_angles_refused(self, field):
        """A real state cannot hold an imaginary part, so complex angles are
        refused by name rather than cast to float with a warning."""
        angles = {"records_angles": np.full((2, 4), 0.3),
                  "centroids_angles": np.full((3, 4), 0.2)}
        angles[field] = angles[field] + 1e-3j
        with pytest.raises(ValueError, match=f"{field} must be real"):
            build_qc3(**angles)
        angles[field] = angles[field].tolist()
        with pytest.raises(ValueError, match=f"{field} must be real"):
            build_qc3(**angles)


class TestDistanceProperty:
    """Analytic QC1 through ``simulate`` against the closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
    def test_ancilla_rate_and_recovered_distance(self, seed, dim):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, dim)) * rng.uniform(0.1, 3.0)
        prepared = prepare_vectors(np.stack([x, y]))
        plan = qc1(*prepared.angles)
        probs = measure(simulate(plan), Analytic()).weights
        basis = np.arange(probs.shape[-1])
        register = (basis >> plan.layout.register) & 1 == 1
        ancilla_0 = (basis >> plan.layout.ancilla) & 1 == 0
        p_zero = probs[register & ancilla_0].sum() / probs[register].sum()
        d = np.linalg.norm(prepared.projected[0] - prepared.projected[1])
        assert p_zero == pytest.approx(1.0 - d * d / 4.0, abs=1e-12)

        d_proj = estimate_distance(plan, measure(simulate(plan), Analytic()))
        recovered = recover_distance(d_proj, *prepared.norms)
        assert recovered == pytest.approx(np.linalg.norm(x - y), abs=1e-9)


class TestAssignmentProperty:
    """Analytic QC3 through ``simulate`` against the closed form of the
    interference circuit (Schuld, Fingerhuth and Petruccione,
    arXiv:1703.10793): cell (v, j) holds (1 - |p_v - c_j|^2 / 4) / N, where
    N counts the index, batch and cluster patterns."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(1, 8),
           st.integers(1, 6), st.integers(0, 4), st.booleans())
    def test_cells_match_closed_form(self, seed, dim, m1, k, rows,
                                     per_row_centroids):
        rng = np.random.default_rng(seed)
        lead = (rows,) if rows else ()
        records_shape = lead + (m1,)
        centroids_shape = (lead if per_row_centroids else ()) + (k,)
        records, centroids = (
            prepare_vectors(rng.standard_normal((math.prod(shape), dim))
                            * rng.uniform(0.1, 3.0))
            for shape in (records_shape, centroids_shape))
        plan = build_qc3(records.angles.reshape(records_shape + (-1,)),
                         centroids.angles.reshape(centroids_shape + (-1,)))
        counts = assignment_histogram(
            plan, measure(simulate(plan), Analytic())).counts
        p = records.projected.reshape(records_shape + (1, -1))
        c = centroids.projected.reshape(centroids_shape + (-1,))
        d2 = np.sum((p - c[..., None, :, :]) ** 2, axis=-1)
        layout = plan.layout
        n = records.slots << len(layout.batch) << len(layout.cluster)
        assert counts == pytest.approx((1.0 - d2 / 4.0) / n, abs=1e-14)
