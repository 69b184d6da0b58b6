"""A fixed computation, owned by the benchmark and never by qkmeans, timed
next to every timed step to track how fast the host runs at that moment.

On a shared host the same q11 call took between 0.8 and 1.7 s within one
process, with CPU time equal to wall time, in stretches of tens of seconds.
Dividing a step's time by the reference time measured around it cancels
most of that drift.  The reference mixes the two kinds of work the workloads
do: interpreter-bound loops over tiny arrays and dicts (the per-circuit path
of q11 and q1k) and gather/scatter over a 17-qubit state (the qmk kernel).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SMALL_LOOPS = 4000
BULK_QUBITS = 17
BULK_LAYERS = 30


class HostReference:
    def __init__(self):
        self._small = np.zeros(16, dtype=np.complex128)
        self._half = np.arange(8)
        self._bulk = np.full(1 << BULK_QUBITS, 2.0 ** (-BULK_QUBITS / 2),
                             dtype=np.complex128)
        self._pairs = np.arange(1 << (BULK_QUBITS - 1), dtype=np.int64)

    def seconds(self) -> float:
        """Time one run of the reference computation."""
        start = perf_counter()
        self._interpreter_bound()
        self._bulk_bound()
        return perf_counter() - start

    def _interpreter_bound(self) -> float:
        amps, lo = self._small, self._half
        amps[0] = 1.0
        total = 0.0
        for _ in range(SMALL_LOOPS):
            a0, a1 = amps[lo], amps[lo + 8]
            amps[lo] = 0.6 * a0 + 0.8 * a1
            amps[lo + 8] = 0.8 * a0 - 0.6 * a1
            weights = {b: w for b, w in enumerate((amps.real ** 2).tolist())
                       if w > 0.0}
            total += sum(weights.values())
        return total

    def _bulk_bound(self) -> float:
        amps, pairs = self._bulk, self._pairs
        for layer in range(BULK_LAYERS):
            bit = layer % (BULK_QUBITS - 1)
            low = pairs & ((1 << bit) - 1)
            i0 = ((pairs ^ low) << 1) | low
            i1 = i0 | (1 << bit)
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = (a0 + a1) * 0.7071067811865476
            amps[i1] = (a0 - a1) * 0.7071067811865476
        return float(abs(amps[0]))
