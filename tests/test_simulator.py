import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmeans import circuits
from qkmeans.circuits import CircuitPlan, build_qc3, simulate
from qkmeans.simulator import (
    Analytic,
    Gate,
    Histogram,
    Sampled,
    apply_gate,
    h,
    hadamard_amplitude,
    measure,
    new_state,
    probabilities,
    ry,
    x,
)
from reference_impls import (
    apply_gate_reference,
    marginal_reference,
    simulate_reference,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def apply_gates(state, gates):
    for gate in gates:
        apply_gate(state, gate)
    return state


def histogram_of(num_qubits, counts):
    """A dense histogram with the given {basis: weight} entries."""
    weights = np.zeros(1 << num_qubits)
    for basis, weight in counts.items():
        weights[basis] = weight
    return Histogram(weights)


def random_gates(rng, num_qubits, count):
    gates = []
    for _ in range(count):
        target = int(rng.integers(num_qubits))
        others = [q for q in range(num_qubits) if q != target]
        n_controls = int(rng.integers(0, min(2, len(others)) + 1))
        picked = rng.choice(others, size=n_controls, replace=False)
        controls = tuple((int(q), int(rng.integers(2))) for q in picked)
        kind = rng.choice(["h", "x", "ry"])
        if kind == "ry":
            gates.append(ry(float(rng.uniform(-math.pi, math.pi)), target, controls))
        elif kind == "h":
            gates.append(h(target, controls))
        else:
            gates.append(x(target, controls))
    return gates


class TestNewState:
    def test_one_qubit(self):
        assert np.allclose(new_state(1), [1, 0])

    def test_two_qubits(self):
        assert np.allclose(new_state(2), [1, 0, 0, 0])

    @pytest.mark.parametrize("rows", [None, 3])
    def test_hadamard_layer_equals_gates(self, rows):
        """``hadamard_amplitude`` is, bit for bit, the amplitude that H
        gates applied one by one leave on every basis state they reach."""
        rng = np.random.default_rng(5)
        lead = () if rows is None else (rows,)
        for num_qubits in range(1, 9):
            for _ in range(4):
                picked = rng.permutation(num_qubits)[
                    :int(rng.integers(num_qubits + 1))].tolist()
                gates = apply_gates(new_state(num_qubits, rows),
                                    [h(q) for q in picked])
                written = np.zeros(lead + (2,) * num_qubits)
                index = [0] * num_qubits
                for qubit in picked:
                    index[num_qubits - 1 - qubit] = slice(None)
                written[(Ellipsis, *index)] = hadamard_amplitude(len(picked))
                assert written.tobytes() == gates.tobytes()

    def test_eight_bytes_per_amplitude(self):
        assert new_state(3, rows=2).dtype == np.float64
        tracemalloc.start()
        try:
            amps = new_state(16)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        buffers = snapshot.filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert amps.dtype == np.float64
        assert sum(t.size for t in buffers.traces) == 8 * 2 ** 16

    @pytest.mark.parametrize("bad", [0, 27, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            new_state(bad)


class TestApplyGate:
    def test_hadamard(self):
        state = apply_gate(new_state(1), h(0))
        assert np.allclose(state, [INV_SQRT2, INV_SQRT2])

    def test_ry_pi_flips(self):
        state = apply_gate(new_state(1), ry(math.pi, 0))
        assert np.allclose(state, [0, 1], atol=1e-15)

    def test_controlled_ry_polarity_zero(self):
        # control on qubit 1 with polarity 0 fires on |00>, not on |10>
        theta = 1.234
        state = apply_gate(new_state(2), ry(theta, 0, [(1, 0)]))
        expect = np.zeros(4)
        expect[0b00] = math.cos(theta / 2)
        expect[0b01] = math.sin(theta / 2)
        assert np.allclose(state, expect)

        flipped = apply_gate(new_state(2), x(1))
        apply_gate(flipped, ry(theta, 0, [(1, 0)]))
        expect = np.zeros(4)
        expect[0b10] = 1.0
        assert np.allclose(flipped, expect)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(new_state(2), h(2))
        with pytest.raises(ValueError):
            apply_gate(new_state(2), ry(1.0, 0, [(5, 1)]))

    def test_non_contiguous_refused_and_untouched(self):
        """The gate acts in place, so an array that cannot be reshaped in
        place is refused, not copied."""
        for amps in (np.zeros((4, 2), complex)[:, 0],
                     np.zeros((4, 3), complex).T):
            amps[..., 0] = 1.0
            before = amps.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                apply_gate(amps, h(0))
            assert np.array_equal(amps, before)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("ry", 0, theta=float("nan"))
        with pytest.raises(ValueError):
            ry(1.0, 0, [(0, 1)])
        with pytest.raises(ValueError):
            ry(1.0, 0, [(1, 1), (1, 0)])
        for theta in (0.5 + 0.0j, np.complex128(0.5),
                      np.array([0.1, 0.2 + 1e-9j])):
            with pytest.raises(ValueError, match="theta must be real"):
                ry(theta, 0)

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match="control qubit -1"):
            ry(1.0, 0, [(1, 1), (-1, 0)])
        with pytest.raises(ValueError, match="target qubit -2"):
            h(-2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_norm_preserved_by_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        state = new_state(4)
        apply_gates(state, random_gates(rng, 4, 12))
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10

    def test_polarity_zero_equals_x_conjugation(self):
        # gate controlled on |0> == X; gate controlled on |1>; X
        rng = np.random.default_rng(42)
        for _ in range(20):
            amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            amps /= np.linalg.norm(amps)
            theta = float(rng.uniform(-math.pi, math.pi))
            a = amps.copy()
            apply_gate(a, ry(theta, 2, [(0, 0), (3, 1)]))
            b = amps.copy()
            apply_gates(b, [x(0), ry(theta, 2, [(0, 1), (3, 1)]), x(0)])
            assert np.max(np.abs(a - b)) <= 1e-12


class TestProbabilities:
    def test_uniform_superposition(self):
        state = apply_gate(new_state(1), h(0))
        assert np.allclose(probabilities(state), [0.5, 0.5])

    def test_basis_state(self):
        state = apply_gate(new_state(1), x(0))
        assert np.allclose(probabilities(state), [0, 1])

    def test_matches_modulus(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        state = amps
        expect = np.array([abs(a) ** 2 for a in amps])
        assert np.allclose(probabilities(state), expect, atol=1e-14)


class TestMeasure:
    def test_analytic_uniform(self):
        state = apply_gate(new_state(1), h(0))
        hist = measure(state, Analytic())
        assert hist.weights == pytest.approx([0.5, 0.5])

    def test_sampled_within_binomial_bound(self):
        state = apply_gate(new_state(1), h(0))
        hist = measure(state, Sampled(4096, seed=99))
        assert abs(hist.weights[0] / 4096 - 0.5) <= 3 * math.sqrt(0.25 / 4096)

    def test_single_shot(self):
        state = apply_gate(new_state(2), h(1))
        hist = measure(state, Sampled(1, seed=0))
        assert hist.shots == 1
        assert set(hist.weights[hist.weights > 0]) == {1}

    def test_deterministic_for_fixed_seed(self):
        state = apply_gate(new_state(3), h(0))
        apply_gate(state, h(2))
        a = measure(state, Sampled(2048, seed=7))
        b = measure(state, Sampled(2048, seed=7))
        assert np.array_equal(a.weights, b.weights)

    def test_sampling_consistency_4_sigma(self):
        rng = np.random.default_rng(11)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        state = amps
        t = 2 ** 16
        hist = measure(state, Sampled(t, seed=5))
        probs = probabilities(state)
        for b, p in enumerate(probs):
            f = hist.weights[b] / t
            assert abs(f - p) <= 4 * math.sqrt(p * (1 - p) / t) + 1e-12

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            Sampled(0)


class TestPostselect:
    def test_filter_on_qubit(self):
        hist = histogram_of(2, {0b00: 10, 0b01: 20, 0b10: 30, 0b11: 40})
        kept = hist.postselect([(1, 1)])
        assert list(kept.weights) == [0, 0, 30, 40]
        assert kept.shots == 70

    def test_empty_result_is_legal(self):
        hist = histogram_of(2, {0b00: 5})
        kept = hist.postselect([(0, 1)])
        assert not kept.weights.any()
        assert kept.shots == 0

    def test_double_equals_joint(self):
        rng = np.random.default_rng(0)
        hist = histogram_of(3, {b: float(rng.integers(1, 50)) for b in range(8)})
        once = hist.postselect([(0, 0), (1, 1)])
        twice = hist.postselect([(0, 0)]).postselect([(1, 1)])
        assert np.array_equal(once.weights, twice.weights)


class TestMarginal:
    def test_single_qubit(self):
        hist = histogram_of(2, {0b00: 1, 0b01: 2, 0b10: 3, 0b11: 4})
        assert list(marginal_reference(hist, [1]).weights) == [3, 7]

    def test_all_qubits_identity(self):
        hist = histogram_of(2, {0b00: 1, 0b01: 2, 0b10: 3, 0b11: 4})
        assert np.array_equal(marginal_reference(hist, [0, 1]).weights,
                              hist.weights)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            marginal_reference(histogram_of(2, {0: 1}), [0, 0])

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 15), st.integers(1, 100),
                           min_size=1),
           st.permutations([0, 1, 2, 3]))
    def test_matches_group_by(self, counts, order):
        qubits = order[:2]
        hist = histogram_of(4, {b: float(w) for b, w in counts.items()})
        got = marginal_reference(hist, qubits).weights
        expect = np.zeros(4)
        for b, w in counts.items():
            key = ((b >> qubits[0]) & 1) | (((b >> qubits[1]) & 1) << 1)
            expect[key] += w
        assert got == pytest.approx(expect)


def random_batched_gates(rng, num_qubits, count, rows):
    """Random H/X/RY gates with up to 3 controls of either polarity; every
    RY carries one angle per row."""
    gates = []
    for _ in range(count):
        target = int(rng.integers(num_qubits))
        others = [q for q in range(num_qubits) if q != target]
        n_controls = int(rng.integers(0, min(3, len(others)) + 1))
        picked = rng.choice(others, size=n_controls, replace=False)
        controls = tuple((int(q), int(rng.integers(2))) for q in picked)
        kind = rng.choice(["h", "x", "ry"])
        if kind == "ry":
            gates.append(ry(rng.uniform(-math.pi, math.pi, rows), target,
                            controls))
        else:
            gates.append((h if kind == "h" else x)(target, controls))
    return gates


def row_gate(gate, row):
    """The scalar-angle gate that row ``row`` of a batched gate applies."""
    if np.ndim(gate.theta):
        return ry(float(gate.theta[row]), gate.target, gate.controls)
    return gate


class TestBatchedKernel:
    """The reshape-view kernel against the index-array reference kernel."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 5))
    def test_rows_match_reference(self, seed, num_qubits, rows):
        rng = np.random.default_rng(seed)
        gates = random_batched_gates(rng, num_qubits, 16, rows)
        amps = (rng.standard_normal((rows, 1 << num_qubits))
                + 1j * rng.standard_normal((rows, 1 << num_qubits)))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        batched = amps.copy()
        apply_gates(batched, gates)
        for r in range(rows):
            single = amps[r].copy()
            for gate in gates:
                apply_gate_reference(single, row_gate(gate, r))
            assert np.max(np.abs(batched[r] - single)) <= 1e-12
            unbatched = amps[r].copy()
            apply_gates(unbatched, [row_gate(g, r) for g in gates])
            assert np.max(np.abs(unbatched - single)) <= 1e-12

    def test_new_state_rows(self):
        state = new_state(2, rows=3)
        assert state.shape == (3, 4)
        assert np.array_equal(probabilities(state)[:, 0], np.ones(3))

    def test_angle_count_must_match_rows(self):
        with pytest.raises(ValueError):
            apply_gate(new_state(2, rows=3), ry(np.zeros(2), 0))
        with pytest.raises(ValueError):
            ry(np.zeros((2, 2)), 0)

    def test_sampled_rows_draw_in_order_from_one_generator(self):
        state = apply_gate(new_state(3, rows=2), ry(np.array([0.3, 2.0]), 1))
        apply_gate(state, h(0))
        hist = measure(state, Sampled(500, seed=11))
        rng = np.random.default_rng(11)
        for r in range(2):
            probs = probabilities(state[r])
            alone = rng.multinomial(500, probs / probs.sum())
            assert np.array_equal(hist.weights[r], alone)
        # a generator carries on from one measurement to the next
        rng = np.random.default_rng(11)
        for r in range(2):
            single = state[r].copy()
            alone = measure(single, Sampled(500, seed=rng))
            assert np.array_equal(hist.weights[r], alone.weights)

    def test_histogram_rows_postselect_and_marginal(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(0, 9, (3, 8)).astype(float)
        hist = Histogram(weights)
        kept = hist.postselect([(2, 1)])
        margin = marginal_reference(hist, [2, 0])
        for r in range(3):
            row = Histogram(weights[r])
            assert np.array_equal(kept.weights[r],
                                  row.postselect([(2, 1)]).weights)
            assert np.array_equal(margin.weights[r],
                                  marginal_reference(row, [2, 0]).weights)
        assert hist.shots == weights.sum()


def random_table(rng, shape):
    """Angles with zero entries of both signs among random ones."""
    pick = rng.integers(4, size=shape)
    return np.where(pick == 0, 0.0, np.where(
        pick == 1, -0.0, rng.uniform(-math.pi, math.pi, shape)))


class TestEncodingBlocks:
    """An encoding branch is one uniformly controlled RY on the register
    qubit, held as an angle table: its broadcast pass against its expanded
    gates, one per nonzero slot, applied one by one."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(1, 6),
           st.integers(1, 5), st.integers(0, 5), st.booleans())
    def test_matches_gate_by_gate(self, seed, n_index, m1, k, rows,
                                  per_row_centroids):
        rng = np.random.default_rng(seed)
        slots = 1 << n_index
        lead = (rows,) if rows else ()
        records = random_table(rng, lead + (m1, slots))
        centroids = random_table(
            rng, (lead if per_row_centroids else ()) + (k, slots))
        plan = build_qc3(records, centroids)
        got = simulate(plan)
        gate_by_gate = apply_gates(new_state(plan.num_qubits, plan.rows),
                                   plan.gates)
        assert got.tobytes() == gate_by_gate.tobytes()

        for r in range(rows or 1):
            single = new_state(plan.num_qubits)
            for gate in plan.gates:
                apply_gate_reference(single, row_gate(gate, r))
            row = got[r] if rows else got
            assert np.max(np.abs(row - single)) <= 1e-12

    def test_checks_every_gate(self):
        """A plan makes, once where it is built, the checks each gate
        made."""
        with pytest.raises(ValueError, match="finite"):
            build_qc3([[0.1, np.nan]], [[0.2, 0.3]])
        with pytest.raises(ValueError, match="finite"):
            build_qc3([[0.1, 0.2]], [[0.2, np.inf]])
        plan = build_qc3(np.full((2, 1, 4), 0.3), np.full((3, 4), 0.2))
        with pytest.raises(ValueError,
                           match="plan records angles must be real, got "
                                 "complex128"):
            CircuitPlan(plan.layout, np.zeros((1, 4), dtype=complex),
                        plan.centroids)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(plan, centroids=np.full((4, 4), np.nan))
        for field, table, message in (
                ("records", np.zeros((2, 1, 8)), "does not fit"),
                ("records", np.zeros((2, 2, 4)), "does not fit"),
                ("centroids", np.zeros((3, 4, 4)), "3 angle tables")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(plan, **{field: table})

    @pytest.mark.parametrize("records, centroids, per_row", [
        ((5, 1, 4), (5, 1, 4), 2),  # q1:1 rows
        ((5, 1, 4), (3, 4), 1),     # q1:k rows
        ((6, 4), (3, 4), 0),        # qM:k
    ])
    def test_assignment_blocks_take_one_pass_each(self, monkeypatch, records,
                                                  centroids, per_row):
        """Each block's angle table is read once, into register halves no
        larger than the table; only the final sums are state-sized."""
        rng = np.random.default_rng(0)
        plan = build_qc3(rng.uniform(0.1, 3.0, records),
                         rng.uniform(0.1, 3.0, centroids))
        passes = []

        def count_block(table, spread, amplitude):
            halves = branch_halves(table, spread, amplitude)
            passes.append((table.ndim == 3,
                           max(half.size for half in halves)
                           <= table.size))
            return halves

        branch_halves = circuits._branch_halves
        monkeypatch.setattr(circuits, "_branch_halves", count_block)
        simulate(plan)
        assert [rowwise for rowwise, _ in passes] == [
            len(records) == 3, len(centroids) == 3]
        assert sum(rowwise for rowwise, _ in passes) == per_row
        assert all(table_sized for _, table_sized in passes)

    @pytest.mark.parametrize("records, centroids", [
        ((450, 1, 4), (450, 1, 4)),  # q1:1 rows, the q11 workload's pass
        *(((150, 1, 4), (k, 4)) for k in range(2, 9)),  # q1:k, its k sweep
        ((2048, 4), (3, 4)),  # qM:k on 17 qubits, the qmk workload's pass
    ])
    def test_benchmark_shapes_match_gate_by_gate(self, records, centroids):
        """The closed form at the sizes the benchmark runs, which the
        property test above, at most 6 records, does not reach."""
        rng = np.random.default_rng(records[0] + centroids[0])
        plan = build_qc3(random_table(rng, records),
                         random_table(rng, centroids))
        gate_by_gate = apply_gates(new_state(plan.num_qubits, plan.rows),
                                   plan.gates)
        assert simulate(plan).tobytes() == gate_by_gate.tobytes()

    def test_simulate_peaks_near_one_state(self):
        """The closed form allocates the state once; everything else it
        holds is table-sized.  A 20-qubit qM:k plan (16,384 records of 4
        slots against 3 centroids) peaks at no more than 1.5 states."""
        rng = np.random.default_rng(0)
        plan = build_qc3(rng.uniform(0.1, 3.0, (1 << 14, 4)),
                         rng.uniform(0.1, 3.0, (3, 4)))
        assert plan.num_qubits == 20
        tracemalloc.start()
        try:
            amps = simulate(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * amps.nbytes


class TestRealAmplitudes:
    """A state is float64: H, X and RY are real, so a complex128 run of the
    same circuit holds the same real parts, up to the sign of an exact
    zero, and the same probabilities bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["qc1", "qc2", "qc3"]),
           st.integers(0, 3), st.integers(1, 6), st.integers(1, 5),
           st.integers(0, 4), st.booleans())
    def test_probabilities_match_complex_reference(self, seed, kind, n_index,
                                                   m1, k, rows,
                                                   per_row_centroids):
        rng = np.random.default_rng(seed)
        m1, k = {"qc1": (1, 1), "qc2": (1, k), "qc3": (m1, k)}[kind]
        slots = 1 << n_index
        lead = (rows,) if rows else ()
        records = random_table(rng, lead + (m1, slots))
        centroids = random_table(
            rng, (lead if per_row_centroids and rows else ()) + (k, slots))
        amps = simulate(build_qc3(records, centroids))
        probs = probabilities(amps)
        for r in range(rows or 1):
            row = (slice(None),) if not rows else (r,)
            single = build_qc3(records[row], centroids[row]
                               if centroids.ndim == 3 else centroids)
            reference = np.abs(simulate_reference(single)) ** 2
            assert probs[row].tobytes() == reference.tobytes()
        assert amps.dtype == np.float64
