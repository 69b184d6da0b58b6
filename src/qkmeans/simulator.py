"""Dense statevector simulator for the restricted gate set {H, X, RY}.

Conventions, used everywhere in this package:

* qubit ``j`` is bit ``j`` (least significant) of the basis-state index;
* ``RY(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]``,
  so ``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``;
* controls carry an explicit polarity, so a gate can fire on a control
  being |0> without X-sandwiching it.

Multi-controlled gates are applied natively on the statevector (the control
pattern selects the amplitude pairs), never decomposed.  ``apply_gate`` is
the per-gate kernel and the source of truth.

``apply_circuit`` also applies an amplitude-encoding block, a uniformly
controlled rotation, in one pass.  Its RYs share one target and one set of
control qubits and differ only in their polarity pattern, so no two of them
act on a common amplitude pair: they commute, and a run of two or more
consecutive such gates is applied in one gather/scatter pass with
``apply_gate``'s checks, coefficients and elementwise formula, giving the
same bytes as gate by gate.  Every other gate, a lone RY and a run that
repeats a pattern go through ``apply_gate``.

A state may carry a leading batch axis: ``(B, 2^q)`` amplitudes are B
circuits that share one gate list, and an RY angle may then be a length-B
array, one angle per row.  Histograms keep the same leading axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 26

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {"h", "x", "ry"}, a target qubit and optional
    polarity-annotated controls ``((qubit, polarity), ...)``.

    An RY angle is a float, or a 1-D array with one angle per row of a
    batched state.  ``mask`` (the control qubits as bits) and ``base`` (the
    basis-index bits their polarities set) are derived from ``controls``."""

    kind: str
    target: int
    theta: float | np.ndarray = 0.0
    controls: tuple[tuple[int, int], ...] = ()
    mask: int = field(init=False, repr=False, compare=False)
    base: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("h", "x", "ry"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if isinstance(self.theta, np.ndarray):
            if self.theta.ndim != 1:
                raise ValueError("gate angles must be a float or a 1-D array")
            finite = bool(np.isfinite(self.theta).all())
        else:
            finite = math.isfinite(self.theta)
        if not finite:
            raise ValueError("gate angle must be finite")
        if self.target < 0:
            raise ValueError(f"target qubit {self.target} is negative")
        mask = base = 0
        for cq, pol in self.controls:
            if cq < 0:
                raise ValueError(f"control qubit {cq} is negative")
            if pol not in (0, 1):
                raise ValueError("control polarity must be 0 or 1")
            mask |= 1 << cq
            base |= pol << cq
        if mask.bit_count() != len(self.controls):
            raise ValueError("control qubits must be pairwise distinct")
        if mask >> self.target & 1:
            raise ValueError("target qubit cannot also be a control")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "base", base)

    @property
    def qubits(self) -> set[int]:
        """All qubits the gate touches (target plus controls)."""
        return {self.target, *(q for q, _ in self.controls)}

    def matrix(self) -> np.ndarray:
        """The 2x2 block; shape (2, 2, B) for a per-row RY angle."""
        if self.kind == "h":
            return _H_MATRIX
        if self.kind == "x":
            return _X_MATRIX
        c, s = _half_cos_sin(self.theta)
        return np.array([[c, -s], [s, c]])


def _half_cos_sin(theta):
    """cos and sin of half an RY angle: ``math`` for a float, ``numpy`` for
    per-row angles.  Every kernel takes its RY coefficients from here."""
    half = 0.5 * theta
    if isinstance(half, np.ndarray):
        return np.cos(half), np.sin(half)
    return math.cos(half), math.sin(half)


def h(target: int, controls=()) -> Gate:
    return Gate("h", target, controls=tuple(controls))


def x(target: int, controls=()) -> Gate:
    return Gate("x", target, controls=tuple(controls))


def ry(theta, target: int, controls=()) -> Gate:
    return Gate("ry", target, theta=theta, controls=tuple(controls))


@dataclass
class StateVector:
    """2^q complex amplitudes of a q-qubit register, or a (B, 2^q) batch of
    B such registers."""

    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


def new_state(num_qubits: int, rows: int | None = None) -> StateVector:
    """Fresh |0...0> state on ``num_qubits`` qubits (1 <= q <= 26); with
    ``rows``, a (rows, 2^q) array of them."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    lead = () if rows is None else (rows,)
    amps = np.zeros(lead + (1 << num_qubits,), dtype=np.complex128)
    amps[..., 0] = 1.0
    return StateVector(num_qubits, amps)


def _check(state: StateVector, gate: Gate) -> None:
    """Make the checks every kernel makes: target and controls inside the
    register, and one angle per row for a per-row RY."""
    q = state.num_qubits
    if gate.target >= q:
        raise ValueError(f"target qubit {gate.target} out of range for {q} qubits")
    if gate.mask >> q:
        raise ValueError(f"control qubit {gate.mask.bit_length() - 1} out of "
                         f"range for {q} qubits")
    if isinstance(gate.theta, np.ndarray):
        shape = state.amplitudes.shape
        if gate.theta.shape != shape[:-1]:
            raise ValueError(f"{gate.theta.shape[0]} gate angles for a state "
                             f"of shape {shape}")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply ``gate`` to ``state`` in place and return it.

    The amplitudes are viewed as one axis of length 2 per qubit; controls
    fix their axes to the declared polarities and the target axis splits
    into the |0> and |1> halves, so the 2x2 block acts on views of the
    matching amplitude pairs and all other amplitudes are untouched.
    """
    _check(state, gate)
    q = state.num_qubits
    if not state.amplitudes.flags.c_contiguous:
        state.amplitudes = np.ascontiguousarray(state.amplitudes)
    amps = state.amplitudes
    lead = amps.shape[:-1]
    view = amps.reshape(lead + (2,) * q)

    def axis(qubit: int) -> int:
        return len(lead) + q - 1 - qubit

    index = [slice(None)] * view.ndim
    for cq, pol in gate.controls:
        index[axis(cq)] = pol
    index[axis(gate.target)] = 0
    i0 = tuple(index)
    index[axis(gate.target)] = 1
    i1 = tuple(index)

    (u00, u01), (u10, u11) = gate.matrix()
    if np.ndim(u00):
        per_row = lead + (1,) * (q - 1 - len(gate.controls))
        u00, u01, u10, u11 = (u.reshape(per_row) for u in (u00, u01, u10, u11))
    a0 = view[i0]
    a1 = view[i1]
    new0 = u00 * a0 + u01 * a1
    view[i1] = u10 * a0 + u11 * a1
    view[i0] = new0
    return state


def _pair_indices(num_qubits: int, target: int, controls: int,
                  bases: list[int]) -> np.ndarray:
    """The (2, gates, free) basis indices of the amplitude pairs that RYs on
    ``target`` act on, for gates that share the control qubits set in the
    bit mask ``controls``: each gate's polarity pattern (its base) plus
    every combination of the free qubits, with the target bit 0, then 1."""
    offsets = np.zeros(1, dtype=np.intp)
    for fq in range(num_qubits):
        if fq != target and not controls >> fq & 1:
            offsets = np.concatenate((offsets, offsets | (1 << fq)))
    idx0 = np.add.outer(np.array(bases, dtype=np.intp), offsets)
    return np.stack((idx0, idx0 | (1 << target)))


def _rotate_pairs(basis_first: np.ndarray, idx: np.ndarray, c: np.ndarray,
                  s: np.ndarray) -> None:
    """Apply RY blocks [[c, -s], [s, c]] with ``apply_gate``'s elementwise
    formula to the amplitude pairs at ``idx`` (2, gates, free), in place.

    ``basis_first`` views the amplitudes with the basis axis first; ``c``
    and ``s`` are (gates, 1, rows...), one block per gate and row.  The four
    products keep ``apply_gate``'s operand order and the two sums commute
    exactly, so the bytes are the same, with two pair-sized buffers only.
    """
    (a0, a1) = gathered = basis_first[idx]
    (new0, new1) = new = np.empty_like(gathered)
    np.multiply(c, a0, out=new0)
    np.multiply(c, a1, out=new1)
    np.multiply(-s, a1, out=a1)
    np.multiply(s, a0, out=a0)
    new0 += a1  # c * a0 + (-s) * a1
    new1 += a0  # s * a0 + c * a1
    basis_first[idx] = new


def _apply_ry_run(state: StateVector, run: list[Gate]) -> None:
    """Apply RYs that share one target and one set of control qubits, each
    with its own polarity pattern, in one gather/scatter pass.

    Such gates act on disjoint amplitude pairs and so commute; with
    ``apply_gate``'s coefficients and formula the pass equals applying them
    one by one, bit for bit.
    """
    for gate in run:
        _check(state, gate)
    first = run[0]
    idx = _pair_indices(state.num_qubits, first.target, first.mask,
                        [gate.base for gate in run])
    lead = state.amplitudes.shape[:-1]
    per_row = any(isinstance(gate.theta, np.ndarray) for gate in run)
    rows = lead if per_row else (1,) * len(lead)
    # filled gate by gate, so that no per-gate objects pile up
    cos_sin = np.empty((len(run), 2) + (lead if per_row else ()))
    for i, gate in enumerate(run):
        pair = _half_cos_sin(gate.theta)
        # a float angle's pair spans every row
        cos_sin[i] = np.reshape(pair, (2, -1)) if per_row else pair
    c, s = np.moveaxis(cos_sin, 1, 0).reshape((2, len(run), 1) + rows)
    _rotate_pairs(np.moveaxis(state.amplitudes, -1, 0), idx, c, s)


def apply_circuit(state: StateVector, gates) -> StateVector:
    """Apply ``gates`` in order, in place, and return the state.

    Each maximal run of two or more consecutive RYs with one target, one
    set of control qubits and pairwise different polarity patterns (an
    encoding block) goes through ``_apply_ry_run``; every other gate goes
    through ``apply_gate``.  The amplitudes are the same bytes either way.
    """
    for (kind, _, _), run in itertools.groupby(
            gates, key=lambda gate: (gate.kind, gate.target, gate.mask)):
        run = list(run)
        if (kind == "ry" and len(run) > 1
                and len({gate.base for gate in run}) == len(run)):
            _apply_ry_run(state, run)
        else:
            for gate in run:
                apply_gate(state, gate)
    return state


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis state."""
    return np.abs(state.amplitudes) ** 2


@dataclass(frozen=True)
class Analytic:
    """Exact final-state distribution; the t -> infinity oracle."""


@dataclass(frozen=True)
class Sampled:
    """t i.i.d. shots drawn from the final-state distribution.

    ``seed`` is one seed, or for a batched state a sequence with one seed
    per row; each row draws from its own generator."""

    shots: int
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


MeasureMode = Analytic | Sampled


@dataclass
class Histogram:
    """Weights of measured basis states over all qubits.

    ``weights`` is a dense array over the 2^q basis states, with the
    state's leading batch axis if it had one.  Sampled measurements produce
    integer-valued weights summing to the shot count per row; analytic
    measurements produce the exact probabilities (weights summing to 1), so
    post-selection and marginalization work identically in both modes.
    """

    num_qubits: int
    weights: np.ndarray

    @property
    def shots(self) -> float:
        """Total weight over all rows."""
        return float(self.weights.sum())

    def postselect(self, conditions) -> "Histogram":
        """Zero every outcome whose ``(qubit, bit)`` conditions do not all
        match."""
        basis = np.arange(1 << self.num_qubits)
        keep = np.ones(basis.shape, dtype=bool)
        for qb, bit in conditions:
            keep &= (basis >> qb) & 1 == bit
        return Histogram(self.num_qubits, np.where(keep, self.weights, 0.0))

    def marginal(self, qubits) -> "Histogram":
        """Sum weights over all qubits not listed; the result is indexed by
        the sub-pattern on ``qubits`` in the given order (qubits[0] -> bit
        0)."""
        qubits = list(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit index in marginal")
        q = self.num_qubits
        lead = self.weights.shape[:-1]
        view = self.weights.reshape(lead + (2,) * q)
        # the listed qubits' axes, most significant first, then the rest
        keep = [len(lead) + q - 1 - qb for qb in reversed(qubits)]
        rest = [a for a in range(len(lead), view.ndim) if a not in keep]
        moved = view.transpose(list(range(len(lead))) + keep + rest)
        out = moved.reshape(lead + (1 << len(qubits), -1)).sum(axis=-1)
        return Histogram(len(qubits), out)


def measure(state: StateVector, mode: MeasureMode) -> Histogram:
    """Measure all qubits.

    Analytic mode returns the exact distribution; Sampled mode draws
    ``mode.shots`` i.i.d. outcomes per row, reproducibly for fixed seeds.
    Partial measurement is realized downstream via ``postselect``/``marginal``.
    """
    probs = probabilities(state)
    if isinstance(mode, Analytic):
        return Histogram(state.num_qubits, probs)
    seeds = [mode.seed] if np.ndim(mode.seed) == 0 else list(mode.seed)
    rows = probs.reshape(-1, probs.shape[-1])
    if len(seeds) != rows.shape[0]:
        raise ValueError(f"{len(seeds)} seeds for {rows.shape[0]} rows")
    draws = np.empty(rows.shape)
    for i, (row, seed) in enumerate(zip(rows, seeds)):
        draws[i] = np.random.default_rng(seed).multinomial(
            mode.shots, row / row.sum())
    return Histogram(state.num_qubits, draws.reshape(probs.shape))
