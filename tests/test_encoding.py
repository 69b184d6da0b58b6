import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qkmeans.circuits import circuit_layout
from qkmeans.encoding import (
    num_slots,
    prepare_vectors,
    recover_distance,
    rotation_angles,
    standardize,
)
from qkmeans.simulator import Analytic, apply_gate, h, measure, new_state
from reference_impls import (
    GatePlan,
    encode_vector,
    isp_reference,
    norms_reference,
    standardize_reference,
)


@st.composite
def records(draw):
    """An m x d matrix, m from 2 and d from 1 to 20, of ±0.0 and of
    magnitudes from 1e-3 to 1e3 of either sign, some columns constant."""
    m = draw(st.integers(2, 12))
    d = draw(st.integers(1, 20))
    magnitude = st.builds(lambda x, negative: -x if negative else x,
                          st.floats(1e-3, 1e3), st.booleans())
    entry = st.one_of(st.sampled_from([0.0, -0.0]), magnitude)
    data = draw(arrays(np.float64, (m, d), elements=entry))
    for column in draw(st.sets(st.integers(0, d - 1))):
        data[:, column] = data[0, column]
    return data


TWO_ROWS = np.array([[0.0, -0.0, 1e-3, 5.0], [-0.0, -0.0, -1e3, 5.0]])


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out.ravel(), [-1, 1])

    def test_constant_column(self):
        out = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(out[:, 0] == 0)

    def test_moments(self):
        rng = np.random.default_rng(1)
        out = standardize(rng.normal(3.0, 2.5, (10, 3)))
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(out.std(axis=0) - 1)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(records())
    @example(TWO_ROWS)
    def test_bytes_equal_std_and_mean(self, data):
        assert (standardize(data).tobytes()
                == standardize_reference(data).tobytes())

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(np.array([[1.0, 2.0]]))

    def test_needs_a_feature_column(self):
        with pytest.raises(ValueError,
                           match="^the records have no feature column$"):
            standardize(np.zeros((3, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_by_row_and_column(self, value):
        data = np.arange(12.0).reshape(4, 3)
        data[2, 1] = value
        data[3, 2] = value  # only the first is named
        with pytest.raises(ValueError,
                           match=rf"row 2, column 1 holds {value}; every "
                                 r"value must be finite"):
            standardize(data)

    def test_overflowing_variance_refused_by_column(self):
        """Finite records whose squared deviations overflow are refused,
        naming the first such column, and no numpy warning escapes."""
        data = np.array([[1.0, 1e308, -1e308], [2.0, -1e308, 1e308],
                         [3.0, 5e307, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^column 1 is too large to standardize:"
                                     r" its variance overflows float64$"):
                standardize(data)


class TestIsp:
    def test_origin_maps_to_south_pole(self):
        assert np.allclose(prepare_vectors(np.zeros(2)).projected[0],
                           [0, 0, -1])

    def test_unit_vector_on_equator(self):
        assert np.allclose(prepare_vectors(np.array([1.0, 0.0])).projected[0],
                           [1, 0, 0])

    def test_three_four(self):
        assert np.allclose(prepare_vectors(np.array([3.0, 4.0])).projected[0],
                           [3 / 13, 4 / 13, 12 / 13])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_unit_norm(self, values):
        projected = prepare_vectors(np.array(values)).projected[0]
        assert abs(np.linalg.norm(projected) - 1.0) <= 1e-12
        assert -1.0 <= projected[-1] < 1.0

    def test_rows_match_single(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(20, 5))
        rows = prepare_vectors(mat).projected
        for i in range(20):
            assert np.allclose(rows[i], isp_reference(mat[i]), atol=1e-15)


class TestRecoverDistance:
    def test_unit_norms_identity(self):
        assert recover_distance(0.7, 1.0, 1.0) == pytest.approx(0.7)

    def test_zero(self):
        assert recover_distance(0.0, 3.0, 2.0) == 0.0

    def test_three_four_vs_origin(self):
        x = np.array([3.0, 4.0])
        y = np.zeros(2)
        px, py = prepare_vectors(np.stack([x, y])).projected
        dp = float(np.linalg.norm(px - py))
        assert recover_distance(dp, 5.0, 0.0) == pytest.approx(5.0, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            recover_distance(2.1, 1.0, 1.0)
        # within the statistical slack: clamped, not rejected
        assert recover_distance(2.0 + 1e-7, 1.0, 1.0) == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, dim, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, dim))
        px, py = prepare_vectors(np.stack([x, y])).projected
        dp = float(np.linalg.norm(px - py))
        recovered = recover_distance(dp, float(np.linalg.norm(x)),
                                     float(np.linalg.norm(y)))
        assert recovered == pytest.approx(float(np.linalg.norm(x - y)),
                                          abs=1e-9)


class TestAngles:
    def test_padding_slots_are_zero(self):
        angles = rotation_angles(np.array([0.6, 0.8]), 4)
        assert angles[2] == 0 and angles[3] == 0
        assert angles[0] == pytest.approx(2 * math.asin(0.6))

    def test_too_long(self):
        with pytest.raises(ValueError):
            rotation_angles(np.ones(5), 4)

    def test_matrix_is_its_rows(self):
        rows = prepare_vectors(np.random.default_rng(3).normal(
            size=(20, 3))).projected
        angles = rotation_angles(rows, 8)
        for row, got in zip(rows, angles):
            assert got.tobytes() == rotation_angles(row, 8).tobytes()

    def test_num_slots(self):
        assert num_slots(1) == 2
        assert num_slots(2) == 2
        assert num_slots(3) == 4
        assert num_slots(5) == 8


def encoded_state(angles, extra_controls=()):
    """Uniform index register, then the encoding block, on a fresh plan."""
    layout = circuit_layout(len(angles))
    plan = GatePlan(layout)
    plan.gates.extend(h(q) for q in layout.index)
    encode_vector(plan, np.asarray(angles), layout.index, layout.register,
                  extra_controls)
    state = new_state(layout.num_qubits)
    for gate in plan.gates:
        apply_gate(state, gate)
    return state, layout, plan


class TestEncodeVector:
    def test_all_zero_appends_nothing(self):
        _, _, plan = encoded_state(np.zeros(4))
        assert len(plan.gates) == 2  # only the index Hadamards

    def test_single_slot_postselection(self):
        # angles (pi, 0): slot 0 holds amplitude 1; P(r=1) = 1/2
        state, layout, _ = encoded_state(np.array([math.pi, 0.0]))
        probs = measure(state, Analytic()).weights
        basis = np.arange(len(probs))
        r1 = (basis >> layout.register) & 1 == 1
        assert probs[r1].sum() == pytest.approx(0.5)
        kept = probs[r1]
        keep_idx = basis[r1]
        i_bits = (keep_idx >> layout.index[0]) & 1
        assert kept[i_bits == 0].sum() == pytest.approx(0.5)
        assert kept[i_bits == 1].sum() == pytest.approx(0.0, abs=1e-15)

    def test_angle_count_mismatch(self):
        layout = circuit_layout(4)
        with pytest.raises(ValueError):
            encode_vector(GatePlan(layout), np.zeros(3), layout.index,
                          layout.register)

    @pytest.mark.parametrize("n_index", [1, 2, 3])
    def test_encoding_fidelity(self, n_index):
        rng = np.random.default_rng(n_index)
        vec = rng.standard_normal(1 << n_index)
        vec /= np.linalg.norm(vec)
        angles = rotation_angles(vec, 1 << n_index)
        state, layout, _ = encoded_state(angles)
        amps = state
        basis = np.arange(len(amps))
        r1 = basis[(basis >> layout.register) & 1 == 1]
        branch = np.zeros(1 << n_index, dtype=complex)
        for b in r1:
            slot = 0
            for pos, qb in enumerate(layout.index):
                slot |= ((int(b) >> qb) & 1) << pos
            branch[slot] += amps[b]
        branch = branch * math.sqrt(1 << n_index)  # undo uniform factor
        assert np.max(np.abs(branch - vec)) <= 1e-10

    def test_unit_vector_postselection_probability(self):
        for n_index in (1, 2, 3):
            rng = np.random.default_rng(10 + n_index)
            vec = rng.standard_normal(1 << n_index)
            vec /= np.linalg.norm(vec)
            state, layout, _ = encoded_state(
                rotation_angles(vec, 1 << n_index))
            probs = measure(state, Analytic()).weights
            basis = np.arange(len(probs))
            p_r1 = probs[(basis >> layout.register) & 1 == 1].sum()
            assert p_r1 == pytest.approx(0.5 ** n_index, abs=1e-12)

    def test_postselection_upper_bound(self):
        # sub-unit-norm vectors stay strictly below 1/2^n
        rng = np.random.default_rng(4)
        for _ in range(10):
            vec = rng.standard_normal(4)
            vec *= rng.uniform(0.1, 0.999) / np.linalg.norm(vec)
            state, layout, _ = encoded_state(rotation_angles(vec, 4))
            probs = measure(state, Analytic()).weights
            basis = np.arange(len(probs))
            p_r1 = probs[(basis >> layout.register) & 1 == 1].sum()
            assert p_r1 < 0.25


class TestPrepare:
    def test_prepared_dataset_invariants(self):
        rng = np.random.default_rng(8)
        data = rng.normal(2.0, 3.0, (40, 3))
        prepared = prepare_vectors(standardize(data))
        assert prepared.projected.shape == (40, 4)
        norms = np.linalg.norm(prepared.projected, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12
        assert prepared.slots == 4
        assert np.all(np.abs(prepared.projected) <= 1.0)
        # angle definition on the non-padded slots
        expect = 2 * np.arcsin(prepared.projected)
        assert np.allclose(prepared.angles[:, :4], expect)

    @settings(max_examples=100, deadline=None)
    @given(records())
    @example(TWO_ROWS)
    def test_norms_bytes_equal_linalg_norm(self, data):
        for rows in (data, standardize(data)):
            assert (prepare_vectors(rows).norms.tobytes()
                    == norms_reference(rows).tobytes())

    def test_prepare_vectors_pads_to_power_of_two(self):
        rng = np.random.default_rng(9)
        vecs = prepare_vectors(rng.normal(size=(5, 4)))  # 5 dims projected
        assert vecs.slots == 8
        assert np.all(vecs.angles[:, 5:] == 0)
