"""The cluster-assignment circuit and its decoders.

* QC3 loads a batch of M1 records over a batch register against all k
  centroids over a cluster register, assigning every record in the batch
  from a single circuit.
* QC2 is QC3 with one record: the most frequent cluster pattern is the
  assignment.
* QC1 is QC3 with one record and one centroid: the ancilla's post-selected
  |0> frequency encodes their squared Euclidean distance.

The skeleton: H on the ancilla, uniform superposition over the addressing
registers, amplitude-encode the record(s) in the ancilla-0 branch and the
centroid(s) in the ancilla-1 branch, final H on the ancilla.  Decoding
post-selects the encoding register qubit on 1 and the ancilla on 0, then
discards patterns that do not address anything actually loaded
(non-power-of-two record or cluster counts leave such slots empty).

A decoder reads a few cells, each a sum of basis-state weights over the
index register: per (record slot, cluster) pattern for QC2 and QC3, and
ancilla 0 and ancilla 1 for QC1.  Given exact probabilities and a
``Sampled`` mode by keyword, it draws the mode's shots over those cells
plus one discarded category holding everything else.  Summing the
categories of a multinomial gives a multinomial over the sums, so the
counts have the distribution that shots over all 2^q basis states would
give after post-selection, without a draw over every basis state.

Each encoding branch is one uniformly controlled RY on the register qubit
(Möttönen et al. 2004), held as a zero-padded angle table: the ancilla-0
branch loads ``CircuitPlan.records``, addressed by the batch register, and
the ancilla-1 branch ``CircuitPlan.centroids``, addressed by the cluster
register.  ``CircuitPlan.gates`` expands them into the per-slot gate list,
the source of truth, which ``circuit_stats`` counts from the tables alone.

``simulate`` does not run that list.  This is the interference circuit of
Schuld, Fingerhuth and Petruccione (arXiv:1703.10793), and its final state
is a sum of per-table terms, so ``simulate`` writes it in closed form into
one fresh array.  The result is the same bytes as ``apply_gate`` run over
the gate list, because each of the three gate-by-gate steps meets known
operands:

* the H layer leaves ``hadamard_amplitude`` A on every basis state with the
  register qubit 0 and +0.0 on every other one;
* a table's gates act only on the pairs of its own ancilla branch, and the
  two branches are disjoint, so every pair a gate rotates still holds
  exactly (A, +0.0).  A slot that is zero in every row emits no gate, and
  RY(+-0.0) maps (A, +0.0) to (A, +0.0), so the table's padding changes
  nothing.  Each register half is therefore the table-sized
  ``c*A + (-s)*0.0`` or ``s*A + c*0.0``, with ``apply_gate``'s formula,
  coefficients and operand order, signs of zero included;
* the final H pairs the record branch's amplitude with the centroid
  branch's at the same (cluster, register, batch, index) pattern.  With
  both register halves of a branch stacked into one two-table array, it is
  one broadcast ``u00*rec + u01*cen`` for the ancilla-0 plane and one
  ``u10*rec + u11*cen`` for the ancilla-1 plane, the same operations on
  the same operands; only those two sums are state-sized.  Over a grid
  plan's leading axes the two branches broadcast as well, so each is
  computed once per table, not once per circuit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .simulator import (
    _H_MATRIX,
    Analytic,
    Gate,
    Histogram,
    Sampled,
    _half_cos_sin,
    h,
    hadamard_amplitude,
    measure,
    require_qubits,
    require_real,
    ry,
)


class EstimationFailure(RuntimeError):
    """No usable shots survived post-selection; the caller must raise the
    shots or give up on the rows named.

    ``rows`` lists the rows of a batched histogram that came up empty.
    ``values``, set only by a sampled decode, holds the decoded value of
    every row, placeholders for the empty ones, so that a caller can redraw
    those rows alone; it is None where no draw can help: for analytic
    weights, and for rows whose exact kept probability is 0."""

    def __init__(self, message: str, rows=None, values=None):
        super().__init__(message)
        self.rows = rows
        self.values = values


@dataclass(frozen=True)
class Layout:
    """Qubit assignment for an assignment circuit.

    Order: ancilla, index register, batch register, encoding register
    qubit, cluster register.
    """

    ancilla: int
    index: tuple[int, ...]
    batch: tuple[int, ...]
    register: int
    cluster: tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return 2 + len(self.index) + len(self.batch) + len(self.cluster)

    @property
    def hadamards(self) -> tuple[int, ...]:
        """The qubits of the leading H layer: all but the register."""
        return (self.ancilla,) + self.index + self.batch + self.cluster


def circuit_layout(slots: int, records: int = 1, clusters: int = 1) -> Layout:
    """The layout of a circuit that loads ``records`` records against
    ``clusters`` centroids of ``slots`` angle slots each: log2(slots) index
    qubits, and as many batch and cluster qubits as it takes to address the
    records and the centroids."""
    n_index = slots.bit_length() - 1
    if slots < 1 or slots != 1 << n_index:
        raise ValueError(f"slots must be a power of two, got {slots}")
    if records < 1 or clusters < 1:
        raise ValueError("a circuit loads at least one record and centroid")
    n_batch = (records - 1).bit_length()
    n_cluster = (clusters - 1).bit_length()
    register = 1 + n_index + n_batch
    return Layout(0, tuple(range(1, 1 + n_index)),
                  tuple(range(1 + n_index, register)), register,
                  tuple(range(register + 1, register + 1 + n_cluster)))


def _pattern(qubits, value) -> tuple[tuple[int, int], ...]:
    """Controls that fire when ``qubits`` (bit b on qubits[b]) hold
    ``value``."""
    return tuple((qb, (int(value) >> b) & 1) for b, qb in enumerate(qubits))


@dataclass(frozen=True)
class CircuitPlan:
    """The assignment circuit on its register layout: the leading H layer,
    the record branch, the centroid branch and a final H on the ancilla.

    ``records[..., v, slot]`` is record v's rotation for index pattern
    slot, loaded on ancilla 0 and batch pattern v; ``centroids[..., j,
    slot]`` is centroid j's, loaded on ancilla 1 and cluster pattern j.
    Both are zero where nothing is loaded: shape ``(..., 2^len(address),
    slots)``.  Leading axes make the plan a pass of many circuits sharing
    the skeleton.  The two tables' leading axes broadcast against each
    other, the centroid table adding no axis that the record table lacks,
    and the plan's circuits are their broadcast, ``lead``, in C order: a
    record table ``(M, 1, ...)`` against a centroid table ``(k, ...)``
    makes the ``(M, k)`` grid of every record against every centroid.  The
    state and everything measured from it keep one flat row axis of
    ``rows`` circuits.  The tables are checked once, here; a plan derived
    by ``with_centroids`` checks only its new centroid table and shares its
    parent's record branch."""

    layout: Layout
    records: np.ndarray
    centroids: np.ndarray
    num_records: int = 1
    num_clusters: int = 1
    lead: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, table, address in self._branches():
            self._require_table(name, table, 1 << len(address), address)
        object.__setattr__(self, "lead", self._lead())

    def _require_table(self, name: str, table, rows: int, address) -> None:
        """Refuse a ``name`` angle table that is complex or non-finite, or
        that is not ``(..., rows, slots)``."""
        require_real(table, f"plan {name} angles")
        if not np.isfinite(table).all():
            raise ValueError(f"plan {name} angles must be finite")
        n_index = len(self.layout.index)
        if table.ndim < 2 or table.shape[-2:] != (rows, 1 << n_index):
            raise ValueError(f"a {name} angle table of shape "
                             f"{table.shape} does not fit {len(address)} "
                             f"address and {n_index} index qubits: expected "
                             f"(..., {rows}, {1 << n_index})")

    def _lead(self) -> tuple[int, ...]:
        """The broadcast of the two tables' leading axes, refused where the
        centroid table would add an axis or does not broadcast."""
        lead, shared = self.records.shape[:-2], self.centroids.shape[:-2]
        if not shared or shared == lead:
            return lead
        try:
            grid = np.broadcast_shapes(lead, shared)
        except ValueError:
            grid = None
        if grid is None or len(grid) > len(lead):
            raise ValueError(f"{math.prod(shared)} angle tables of lead "
                             f"shape {shared} for a plan whose record "
                             f"tables have lead shape {lead}")
        return grid

    @functools.cached_property
    def record_branch(self) -> np.ndarray:
        """The record branch after the H layer and its gates, as
        ``_branch_registers`` gives it: computed at most once per plan,
        read-only, and carried over by ``with_centroids``."""
        branch = _branch_registers(
            self.records, (1, self.records.shape[-2]),
            hadamard_amplitude(len(self.layout.hadamards)))
        branch.flags.writeable = False
        return branch

    def with_centroids(self, centroid_angles) -> CircuitPlan:
        """This plan with centroid angles ``(..., num_clusters, slots)`` in
        place of its own, zero-padded as ``build_qc3`` pads them.

        Only the new table is checked, with the messages of a plan built
        afresh; the layout, the record table and its branch are this plan's,
        the branch computed here if it has not been yet.  So a run that
        keeps its records and moves its centroids builds each pass's record
        side once."""
        angles = np.asarray(centroid_angles)
        cluster = self.layout.cluster
        self._require_table("centroids", angles, self.num_clusters, cluster)
        self.record_branch  # computed before the copy, so the plans share it
        plan = object.__new__(CircuitPlan)  # a copy that skips __post_init__
        vars(plan).update(vars(self), centroids=_table(angles, len(cluster)))
        object.__setattr__(plan, "lead", plan._lead())
        return plan

    def _branches(self):
        """(name, table, address register) per ancilla branch, 0 then 1."""
        return (("records", self.records, self.layout.batch),
                ("centroids", self.centroids, self.layout.cluster))

    @property
    def rows(self) -> int | None:
        """None for one circuit, else the number of circuits in the plan."""
        return math.prod(self.lead) if self.lead else None

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits

    @property
    def gates(self) -> list[Gate]:
        """The plan as the ordered gate list that ``apply_gate`` runs: each
        table as one RY per slot that is nonzero in some row, address
        pattern by address pattern.  A table without leading axes gives
        float angles; any other gives one angle per row of the plan, its
        own broadcast over ``lead`` and flattened."""
        layout = self.layout
        gates = [h(q) for q in layout.hadamards]
        for branch, (_, table, address) in enumerate(self._branches()):
            for a, slot in zip(*np.nonzero(_used_slots(table))):
                theta = table[..., a, slot]
                controls = (_pattern(layout.index, slot)
                            + ((layout.ancilla, branch),)
                            + _pattern(address, a))
                gates.append(ry(np.broadcast_to(theta, self.lead).flatten()
                                if theta.ndim else float(theta),
                                layout.register, controls))
        gates.append(h(layout.ancilla))
        return gates


def _used_slots(table: np.ndarray) -> np.ndarray:
    """The (address, slot) columns nonzero in some row, one RY each."""
    return np.any(table != 0.0, axis=tuple(range(table.ndim - 2)))


def _table(angles: np.ndarray, address_qubits: int) -> np.ndarray:
    """Angles ``(..., n, slots)`` zero-padded to 2^address_qubits rows."""
    table = np.zeros(angles.shape[:-2] + (1 << address_qubits,
                                          angles.shape[-1]))
    table[..., :angles.shape[-2], :] = angles
    return table


def build_qc3(records_angles, centroids_angles) -> CircuitPlan:
    """Assignment circuit for records ``(M1, slots)`` against centroids
    ``(k, slots)``: 1 + n_index + n_batch + 1 + n_cluster qubits, with the
    widths taken from the shapes by ``circuit_layout``.  QC2 is the M1 = 1
    instance and QC1 the M1 = k = 1 one.

    Record v's rotations carry v's bit pattern on the batch register (and
    are not controlled by the cluster register); centroid j's carry j's
    pattern on the cluster register only.  Leading axes build a pass of
    many circuits on one shared skeleton, the broadcast of the two inputs'
    leading axes in C order (``CircuitPlan``): records ``(B, M1, slots)``
    against centroids ``(B, k, slots)``, or ``(k, slots)`` shared by every
    row, or records ``(M, 1, 1, slots)`` against centroids ``(k, 1,
    slots)``, the q1:1 grid whose row r*k + j is record r against centroid
    j.
    """
    require_real(records_angles, "records_angles")
    require_real(centroids_angles, "centroids_angles")
    records = np.asarray(records_angles, dtype=float)
    centroids = np.asarray(centroids_angles, dtype=float)
    if records.ndim < 2 or centroids.ndim < 2:
        raise ValueError("records must be (..., M1, slots) and centroids "
                         "(..., k, slots)")
    if records.shape[-1] != centroids.shape[-1]:
        raise ValueError(f"records have {records.shape[-1]} angle slots, "
                         f"centroids {centroids.shape[-1]}")
    m1, k = records.shape[-2], centroids.shape[-2]
    layout = circuit_layout(records.shape[-1], m1, k)
    return CircuitPlan(layout, _table(records, len(layout.batch)),
                       _table(centroids, len(layout.cluster)),
                       num_records=m1, num_clusters=k)


def _branch_registers(table: np.ndarray, spread: tuple[int, int],
                      amplitude: float) -> np.ndarray:
    """The ancilla branch that ``table`` loads, after the H layer and its
    gates: its register-0 and register-1 halves stacked into one array of
    two tables that broadcasts over (rows..., cluster, register, batch,
    index), the table's address axis spread as ``spread`` over (cluster,
    batch).

    Every pair the table rotates holds (``amplitude``, +0.0), so each half
    is ``apply_gate``'s formula on that pair, with the table entry of the
    pair's address and index pattern as its angle."""
    lead, slots = table.shape[:-2], table.shape[-1:]
    c, s = (np.reshape(v, lead + spread + slots)
            for v in _half_cos_sin(table))
    registers = np.empty(lead + spread[:1] + (2,) + spread[1:] + slots)
    np.add(c * amplitude, (-s) * 0.0, out=registers[..., 0, :, :])
    np.add(s * amplitude, c * 0.0, out=registers[..., 1, :, :])
    return registers


def simulate(plan: CircuitPlan) -> np.ndarray:
    """The plan's final amplitudes, written in closed form into one fresh
    array: each branch's two register halves from its angle table, then the
    final H as one broadcast sum per ancilla value, each covering both
    register halves.  The bytes are those of ``apply_gate`` run over
    ``plan.gates``; the module docstring gives the argument.

    Each branch is computed once per table, so a grid plan computes it once
    per distinct record and once per distinct centroid, and only the two
    plane sums, written over the ``plan.lead`` grid, have a row per
    circuit.  The state comes back with one flat row axis, ``(rows,
    2^q)``, or ``(2^q,)`` for one circuit."""
    require_qubits(plan.num_qubits, "a state")
    rec = plan.record_branch
    cen = _branch_registers(plan.centroids, (plan.centroids.shape[-2], 1),
                            hadamard_amplitude(len(plan.layout.hadamards)))
    amps = np.empty(plan.lead + (1 << plan.num_qubits,))
    view = _layout_view(plan, amps)
    (u00, u01), (u10, u11) = _H_MATRIX
    np.add(u00 * rec, u01 * cen, out=view[..., 0])
    np.add(u10 * rec, u11 * cen, out=view[..., 1])
    return amps.reshape(plan.rows, -1) if len(plan.lead) > 1 else amps


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right, the order in which the
    basis states are enumerated, so analytic weights round the same way for
    one circuit and for any batch; each term is a view of the last axis."""
    return functools.reduce(np.add, (values[..., i]
                                     for i in range(values.shape[-1])))


def _layout_view(plan: CircuitPlan, values: np.ndarray) -> np.ndarray:
    """Amplitudes or weights with one axis per register, most significant
    first: (rows..., cluster, register, batch, index, ancilla)."""
    layout = plan.layout
    return values.reshape(values.shape[:-1] + (
        1 << len(layout.cluster), 2, 1 << len(layout.batch),
        1 << len(layout.index), 2))


def _empty_rows(kept: np.ndarray, what: str, values=None) -> None:
    """Raise EstimationFailure naming the rows with nothing kept, carrying
    a sampled decode's ``values``."""
    empty = np.atleast_1d(kept <= 0.0)
    if empty.any():
        raise EstimationFailure(f"no shots survived {what}",
                                np.flatnonzero(empty), values)


def _draw(cells: np.ndarray, sampled: Sampled, ndim: int = 1) -> np.ndarray:
    """Counts of ``sampled.shots`` shots per row over the cells in the last
    ``ndim`` axes of ``cells``, exact probabilities of one decoder's
    outcomes; the counts have the cells' shape.

    A last, discarded category ``max(0, 1 - sum)`` holds every other
    outcome; numpy's ``multinomial`` gives the last category whatever the
    others leave, so its value only has to be a probability.  Summing the
    categories of a multinomial gives a multinomial over the sums, so these
    counts have the distribution that a draw over all 2^q basis states
    followed by post-selection gives.  One draw, rows in row order, from
    ``sampled.seed``; the discarded counts are dropped.

    Each row's cells are contiguous in the probability vector and in the
    draw, so both reshape to the cells' shape as views: the cells are
    copied once and the counts not at all."""
    lead = cells.shape[:cells.ndim - ndim]
    probs = np.empty(lead + (math.prod(cells.shape[len(lead):]) + 1,))
    kept = probs[..., :-1]
    kept.reshape(cells.shape)[...] = cells
    probs[..., -1] = np.maximum(0.0, 1.0 - kept.sum(axis=-1))
    counts = np.random.default_rng(sampled.seed).multinomial(sampled.shots,
                                                             probs)
    return counts[..., :-1].reshape(cells.shape)


def _require_kept(cells: np.ndarray, what: str) -> None:
    """Refuse, before any draw, the rows whose cells are all exactly 0: no
    number of shots can make them survive ``what``."""
    impossible = np.atleast_1d(~np.any(cells > 0.0, axis=-1))
    if impossible.any():
        rows = np.flatnonzero(impossible)
        raise EstimationFailure(
            f"no shot can survive {what} in rows {rows.tolist()}: their "
            f"exact kept probability is 0", rows)


def estimate_distance(plan: CircuitPlan, hist: Histogram, *,
                      sampled: Sampled | None = None):
    """Distance estimate from a QC1 histogram.

    Reads two cells per row, register 1 with ancilla 0 (a0) and with
    ancilla 1 (a1), each summed over the index register.  t' = a0 + a1
    survives the register post-selection, and p = a0 / t' gives
    sqrt(max(0, 4 - 4p)), the distance between the encoded (projected)
    unit vectors.  A batched histogram gives one estimate per row.

    With ``sampled``, ``hist`` holds exact probabilities and the cells are
    ``sampled.shots`` shots drawn over them; a failure then carries the
    distances.  Rows whose exact kept probability is 0 fail before the
    draw, without them.
    """
    # QC1 has no cluster or batch register; keep register = 1
    kept = _layout_view(plan, hist.weights)[..., 0, 1, 0, :, :]
    cells = _ordered_sum(np.swapaxes(kept, -1, -2))  # ancilla 0, 1
    if sampled is not None:
        _require_kept(cells, "register post-selection")
        cells = _draw(cells, sampled)
    t_prime = cells.sum(axis=-1)
    p_hat = cells[..., 0] / np.where(t_prime > 0, t_prime, 1)
    distance = np.sqrt(np.maximum(0.0, 4.0 - 4.0 * p_hat))
    _empty_rows(t_prime, "register post-selection",
                None if sampled is None else distance)
    return distance


@dataclass
class AssignmentHistogram:
    """Meaningful counts of an assignment circuit run, after post-selection
    and pattern filtering.

    ``counts[..., v, j]`` is the weight of record slot v on cluster j, with
    the histogram's leading batch axis if it had one; ``kept_shots`` is
    their total over all rows."""

    counts: np.ndarray
    kept_shots: float


def _assignment_cells(plan: CircuitPlan, weights: np.ndarray) -> np.ndarray:
    """The register-1, ancilla-0 weight of every loaded (record slot,
    cluster) pattern, summed over the index register: ``(..., M1, k)``."""
    kept = _layout_view(plan, weights)[..., 1, :, :, 0]  # (..., j, v, index)
    cells = _ordered_sum(kept)[..., :plan.num_clusters, :plan.num_records]
    return np.swapaxes(cells, -1, -2)


def assignment_histogram(plan: CircuitPlan, hist: Histogram) -> AssignmentHistogram:
    """Post-select register=1 and ancilla=0, then bucket the surviving counts
    by (record slot, cluster), discarding patterns beyond the loaded counts."""
    counts = _assignment_cells(plan, hist.weights)
    return AssignmentHistogram(counts, float(counts.sum()))


def decode_qc2(plan: CircuitPlan, hist: Histogram, *,
               sampled: Sampled | None = None):
    """Most frequent meaningful cluster pattern; ties break to the lowest
    index.  One label per row for a batched histogram.  Raises
    EstimationFailure if nothing survives in some row.

    With ``sampled``, ``hist`` holds exact probabilities and the votes are
    ``sampled.shots`` shots drawn over the k (record, cluster) cells of
    each row; a failure then carries the labels.  Rows whose cells all
    have probability 0, such as a record antipodal to every centroid, fail
    before the draw, without them."""
    counts = _assignment_cells(plan, hist.weights)[..., 0, :]
    if sampled is not None:
        _require_kept(counts, "cluster assignment")
        counts = _draw(counts, sampled)
    labels = np.argmax(counts, axis=-1)
    _empty_rows(counts.sum(axis=-1), "cluster assignment",
                None if sampled is None else labels)
    return labels


def decode_qc3(plan: CircuitPlan, hist: Histogram, *,
               sampled: Sampled | None = None) -> list[int | None]:
    """Per-record most frequent cluster; record slots with zero surviving
    counts come back as None for the caller to reassign.  A batched
    histogram gives one flat list in (row, slot) order.

    With ``sampled``, ``hist`` holds exact probabilities and the votes are
    ``sampled.shots`` shots drawn over the M1 * k (record, cluster) cells
    of each row; a slot whose cells all have probability 0 gets no shot."""
    counts = _assignment_cells(plan, hist.weights)
    if sampled is not None:
        counts = _draw(counts, sampled, ndim=2)
    labels = np.argmax(counts, axis=-1).ravel().tolist()
    totals = counts.sum(axis=-1).ravel().tolist()
    return [label if total > 0 else None
            for label, total in zip(labels, totals)]


def postselection_probability(plan: CircuitPlan) -> float | np.ndarray:
    """Exact probability that the encoding register measures 1 in the final
    state, which ``measure`` squares in place as an assignment pass does;
    one per row for a batched plan."""
    amps = simulate(plan)
    probs = measure(amps, Analytic(), out=amps).weights
    kept = _layout_view(plan, probs)[..., 1, :, :, :]
    kept = kept.reshape(kept.shape[:-4] + (-1,)).sum(axis=-1)
    return float(kept) if plan.rows is None else kept


@dataclass(frozen=True)
class CircuitStats:
    qubits: int
    gate_count: int
    depth: int


def circuit_stats(plan: CircuitPlan) -> CircuitStats:
    """Qubits, gates and depth of ``plan.gates``, read from the tables: an H
    layer on distinct qubits, one RY per nonzero column (-0.0 is zero), each
    on the register qubit under ancilla control, and a final H on the
    ancilla.  Two gates share a layer iff their qubit sets are disjoint, so
    the RYs serialize and depth is their count plus 2."""
    rys = sum(int(np.count_nonzero(_used_slots(table)))
              for _, table, _ in plan._branches())
    return CircuitStats(plan.num_qubits, len(plan.layout.hadamards) + rys + 1,
                        rys + 2)
