"""Dense statevector simulator for the restricted gate set {H, X, RY}.

Conventions, used everywhere in this package:

* qubit ``j`` is bit ``j`` (least significant) of the basis-state index;
* ``RY(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]``,
  so ``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``;
* controls carry an explicit polarity, so a gate can fire on a control
  being |0> without X-sandwiching it.

Multi-controlled gates are applied natively on the statevector (the control
pattern selects the amplitude pairs), never decomposed.  ``apply_gate`` is
the per-gate kernel and the source of truth; its RY coefficients come from
``_half_cos_sin``.  The circuit layer does not run its assignment circuits
through it: it writes their final states in closed form, and is checked
against ``apply_gate`` run gate by gate.  That is exact because every pair
an encoding gate rotates holds exactly (``hadamard_amplitude``, +0.0), the
two ancilla branches are disjoint, and the closed form applies the same
IEEE operations to the same operands.

A state is its float64 amplitude array, ``(2^q,)`` for one q-qubit
register, as ``new_state`` makes it; q is read from the last axis.  A
leading batch axis, ``(B, 2^q)``, holds B circuits that share one gate list,
and an RY angle may then be a length-B array, one angle per row.  Histograms
keep the same leading axis.

``measure`` is the one way from amplitudes to probabilities: it squares
them exactly, draws no shots and does not post-select.  Given ``out=``, as
``np.square`` takes it, it writes them there instead of into a fresh
array: an assignment pass, and ``postselection_probability``, square the
state just simulated in place, so each holds one state-sized array, not
two.  The decoders (``circuits``), given ``Sampled`` as ``sampled=``, draw
shots over the few post-selected cells they read, which gives the counts
the distribution of shots over all basis states followed by
post-selection.

Real amplitudes are exact, not an approximation.  H, X and RY are real
matrices and every circuit starts from |0...0>, so a complex128 run would
hold only imaginary parts of +-0.  The real part of a product
(u + 0i)(x +- 0i) is u*x - (+-0) and complex sums add real parts alone, so
every real part equals the float64 result, except perhaps the sign of an
exact zero, which squaring drops.  ``measure``'s probabilities, and
everything measured from them, are the same bytes at half the memory
traffic.  Gate angles and amplitudes must therefore be real: complex ones
are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 26

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {"h", "x", "ry"}, a target qubit and optional
    polarity-annotated controls ``((qubit, polarity), ...)``.

    An RY angle is a float, or a 1-D array with one angle per row of a
    batched state."""

    kind: str
    target: int
    theta: float | np.ndarray = 0.0
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("h", "x", "ry"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not isinstance(self.theta, float):  # floats skip the slower check
            require_real(self.theta, "gate angle theta")
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
        for cq, pol in self.controls:
            if cq < 0:
                raise ValueError(f"control qubit {cq} is negative")
            if pol not in (0, 1):
                raise ValueError("control polarity must be 0 or 1")
        control_qubits = {cq for cq, _ in self.controls}
        if len(control_qubits) != len(self.controls):
            raise ValueError("control qubits must be pairwise distinct")
        if self.target in control_qubits:
            raise ValueError("target qubit cannot also be a control")

    def matrix(self) -> np.ndarray:
        """The 2x2 block; shape (2, 2, B) for a per-row RY angle."""
        if self.kind == "h":
            return _H_MATRIX
        if self.kind == "x":
            return _X_MATRIX
        c, s = _half_cos_sin(self.theta)
        return np.array([[c, -s], [s, c]])


def _half_cos_sin(theta):
    """cos and sin of half an RY angle, or elementwise of an array of
    angles.  Every kernel takes its RY coefficients from here."""
    half = 0.5 * theta
    return np.cos(half), np.sin(half)


def h(target: int, controls=()) -> Gate:
    return Gate("h", target, controls=tuple(controls))


def x(target: int, controls=()) -> Gate:
    return Gate("x", target, controls=tuple(controls))


def ry(theta, target: int, controls=()) -> Gate:
    return Gate("ry", target, theta=theta, controls=tuple(controls))


def new_state(num_qubits: int) -> np.ndarray:
    """Fresh float64 |0...0> amplitudes on ``num_qubits`` qubits, at least 1
    and at most ``MAX_QUBITS``: one state, shape (2^q,)."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    require_qubits(num_qubits, "a state")
    amps = np.zeros(1 << num_qubits)
    amps[0] = 1.0
    return amps


def hadamard_amplitude(count: int) -> float:
    """The amplitude of every basis state that H gates on ``count`` distinct
    qubits reach from |0...0>: ``_H_MATRIX[0, 0]`` multiplied in once per
    gate, in the order ``apply_gate`` multiplies it, so it is bit for bit
    what applying the gates one by one gives.  All other amplitudes stay
    +0.0."""
    amplitude = 1.0
    for _ in range(count):
        amplitude = _H_MATRIX[0, 0] * amplitude
    return amplitude


def require_qubits(qubits: int, what: str) -> None:
    """Refuse ``what``, before any work, if its ``qubits`` exceed the
    current ``MAX_QUBITS``."""
    if qubits > MAX_QUBITS:
        raise ValueError(f"{what} needs {qubits} qubits, more than "
                         f"MAX_QUBITS = {MAX_QUBITS}")


def require_real(values, what: str) -> None:
    """Refuse complex ``values``: a real state has nowhere to keep an
    imaginary part, and writing one into it would drop it."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got "
                         f"{np.asarray(values).dtype}")


def apply_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply ``gate`` in place to the C-contiguous amplitudes ``amps`` and
    return them; any other array is refused, since reshaping it would
    apply the gate to a copy.

    The amplitudes are viewed as one axis of length 2 per qubit; controls
    fix their axes to the declared polarities and the target axis splits
    into the |0> and |1> halves, so the 2x2 block acts on views of the
    matching amplitude pairs and all other amplitudes are untouched.
    Target and controls must lie inside the register, and a per-row RY
    needs one angle per row.
    """
    q = amps.shape[-1].bit_length() - 1
    if gate.target >= q:
        raise ValueError(f"target qubit {gate.target} out of range for {q} qubits")
    top = max((cq for cq, _ in gate.controls), default=-1)
    if top >= q:
        raise ValueError(f"control qubit {top} out of range for {q} qubits")
    if isinstance(gate.theta, np.ndarray):
        if gate.theta.shape != amps.shape[:-1]:
            raise ValueError(f"{gate.theta.shape[0]} gate angles for a state "
                             f"of shape {amps.shape}")
    if not amps.flags.c_contiguous:
        raise ValueError("apply_gate works in place on C-contiguous "
                         "amplitudes only")
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
    return amps


@dataclass(frozen=True)
class Analytic:
    """Exact final-state distribution; the t -> infinity oracle."""


@dataclass(frozen=True)
class Sampled:
    """t i.i.d. shots, which a decoder given this as ``sampled=`` draws
    over the cells it reads.

    ``seed`` is a seed or a ``numpy.random.Generator``.  A generator is drawn
    from and advanced, so successive draws continue one stream; a batch
    draws its rows from it in row order."""

    shots: int
    seed: int | np.random.Generator = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass
class Histogram:
    """Weights of measured basis states over all qubits.

    ``weights`` is a dense array over the 2^q basis states, with the
    state's leading batch axis if it had one: ``measure``'s exact float64
    probabilities, or dense counts such as a test's reference draw.  The
    decoders' sums of counts are exact below 2^53, so they give the same
    values for int64 and float64 counts.
    """

    weights: np.ndarray

    @property
    def shots(self) -> float:
        """Total weight over all rows."""
        return float(self.weights.sum())

    def postselect(self, conditions) -> "Histogram":
        """Zero every outcome whose ``(qubit, bit)`` conditions do not all
        match."""
        basis = np.arange(self.weights.shape[-1])
        keep = np.ones(basis.shape, dtype=bool)
        for qb, bit in conditions:
            keep &= (basis >> qb) & 1 == bit
        return Histogram(np.where(keep, self.weights, 0.0))


def measure(amps: np.ndarray, mode: Analytic, *,
            out: np.ndarray | None = None) -> Histogram:
    """The exact distribution over all qubits, amplitude^2 per basis state
    and one row per circuit of a batched state; post-selection is left to
    the caller and shots are drawn only by the decoders, given ``Sampled``
    as ``sampled=``.  The squares go into a new array, or into ``out``, a
    float64 array of ``amps``'s shape (``amps`` itself squares it in
    place).  Complex amplitudes are refused; a real x gives x*x, which is
    |x|*|x| bit for bit."""
    if not isinstance(mode, Analytic):
        raise ValueError(f"measure gives exact probabilities only, not "
                         f"{type(mode).__name__}; draw shots with a "
                         f"decoder's sampled= keyword")
    require_real(amps, "amplitudes")
    if out is not None and (out.shape != amps.shape
                            or out.dtype != np.float64):
        raise ValueError(f"out must be float64 of shape {amps.shape}, got "
                         f"{out.dtype} of shape {out.shape}")
    return Histogram(np.square(amps, out=out))
