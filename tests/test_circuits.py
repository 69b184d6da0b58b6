import math

import numpy as np
import pytest

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
from qkmeans.simulator import Analytic, Histogram, Sampled, h, measure
from reference_impls import (
    build_qc1_reference,
    build_qc2_reference,
    build_qc3_reference,
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
    return Histogram(num_qubits, weights)


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
        d, kept = self.run_pair(x, x)
        assert d == pytest.approx(0.0, abs=1e-9)
        assert kept > 0

    def test_orthogonal_vectors(self):
        d, _ = self.run_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_antipodal_vectors(self):
        x = np.array([0.6, 0.8])
        d, _ = self.run_pair(x, -x)
        assert d == pytest.approx(2.0, abs=1e-12)

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
                d, _ = self.run_pair(x, y)
                assert d == pytest.approx(float(np.linalg.norm(x - y)),
                                          abs=1e-9)

    def test_sampled_convergence(self):
        # 2^15 shots: |d_hat - d| <= 0.1 on at least 95% of random instances
        rng = np.random.default_rng(3)
        hits = 0
        for i in range(100):
            x, y = unit_rows(rng, 2, 4)
            plan = qc1(angles_of(x), angles_of(y))
            d_hat, _ = estimate_distance(
                plan, measure(simulate(plan), Sampled(2 ** 15, seed=1000 + i)))
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
        return CircuitPlan(layout, [h(layout.ancilla)], num_clusters=k)

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
        d3, _ = estimate_distance(plan3, measure(simulate(plan3), Analytic()))
        d1, _ = estimate_distance(plan1, measure(simulate(plan1), Analytic()))
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
        assert buckets.wasted_fraction > 0.0
        assert buckets.wasted_fraction == pytest.approx(
            1.0 - buckets.kept_shots / hist.shots)
        labels = decode_qc3(plan, hist)
        assert len(labels) == 3

    def test_unassigned_record_is_none(self):
        plan = build_qc3(np.zeros((2, 4)), np.zeros((2, 4)))
        # histogram whose kept counts only cover record slot 0
        layout = plan.layout
        basis = 1 << layout.register
        hist = histogram_of(layout.num_qubits, {basis: 10})
        assert decode_qc3(plan, hist) == [0, None]

    def test_uniform_tie_gives_zero(self):
        layout = circuit_layout(2, records=2, clusters=2)
        plan = CircuitPlan(layout, [h(layout.ancilla)],
                           num_records=1, num_clusters=2)
        b0 = 1 << layout.register
        b1 = b0 | (1 << layout.cluster[0])
        hist = histogram_of(layout.num_qubits, {b0: 7, b1: 7})
        assert decode_qc3(plan, hist) == [0]


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


class TestCircuitStats:
    def test_empty_plan(self):
        plan = CircuitPlan(circuit_layout(4))
        stats = circuit_stats(plan)
        assert (stats.qubits, stats.gate_count, stats.depth) == (4, 0, 0)

    def test_sequential_on_same_qubit(self):
        plan = CircuitPlan(circuit_layout(2), [h(0), h(0)])
        assert circuit_stats(plan).depth == 2

    def test_parallel_on_disjoint_qubits(self):
        plan = CircuitPlan(circuit_layout(2), [h(0), h(1)])
        assert circuit_stats(plan).depth == 1

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
        d, kept = estimate_distance(plan, hist)
        for r in range(5):
            single = qc1(angles_of(records[r]), angles_of(centroids[r]))
            d1, kept1 = estimate_distance(
                single, measure(simulate(single), Analytic()))
            assert d[r] == d1 and kept[r] == kept1

    def test_qc2_rows_match_single_circuits(self):
        rng = np.random.default_rng(15)
        records, centroids = unit_rows(rng, 6, 4), unit_rows(rng, 3, 4)
        plan = qc2(angles_of(records), angles_of(centroids))
        hist = measure(simulate(plan), Sampled(300, seed=tuple(range(6))))
        labels = decode_qc2(plan, hist)
        buckets = assignment_histogram(plan, hist)
        for r in range(6):
            single = qc2(angles_of(records[r]), angles_of(centroids))
            alone = measure(simulate(single), Sampled(300, seed=r))
            assert labels[r] == decode_qc2(single, alone)
            assert np.array_equal(buckets.counts[r, 0],
                                  assignment_histogram(single, alone).counts[0])

    def test_failure_names_empty_rows(self):
        plan = qc1(np.zeros((3, 2)), np.zeros((3, 2)))
        weights = np.zeros((3, 8))
        weights[:, 0] = 5.0  # register = 0: nothing survives ...
        weights[1, 1 << plan.layout.register] = 5.0  # ... except in row 1
        with pytest.raises(EstimationFailure) as failure:
            estimate_distance(plan, Histogram(plan.num_qubits, weights))
        assert list(failure.value.rows) == [0, 2]


class TestOneBuilder:
    """``build_qc3`` builds QC1 and QC2 as one-record QC3 instances; its
    gate lists equal those of the three separate reference builders."""

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

    def test_rows_must_agree(self):
        with pytest.raises(ValueError):
            build_qc3(np.zeros((3, 1, 4)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):  # centroid rows without record rows
            build_qc3(np.zeros((1, 4)), np.zeros((3, 1, 4)))
