"""Child processes of the benchmark, each measured from a fresh interpreter.

    python3 bench/probe.py setup WORKLOAD SEED
        Import qkmeans and build the workload's inputs, then print
        ``time.monotonic()`` (a clock shared by all processes on the host).
    python3 bench/probe.py kernel
        Time ``new_state`` plus one H, one X and one singly-controlled RY at
        16, 20 and 22 qubits; print seconds per gate and the peak RSS as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from source import prepare_process

# (qubits, repeats): an H costs about 18 ms at 18 qubits and 343 ms at 22;
# 22 qubits keeps the sweep's peak RSS near 300 MiB.
KERNEL_SIZES = ((16, 15), (20, 3), (22, 2))


def setup(name: str, seed: int) -> None:
    import workloads

    workloads.WORKLOADS[name](seed)
    print(repr(time.monotonic()))


def kernel() -> None:
    from qkmeans import simulator

    from spans import peak_rss_mib

    out = {}
    if not all(hasattr(simulator, name)
               for name in ("apply_gate", "h", "new_state", "ry", "x")):
        print(json.dumps(out))  # the metrics are reported absent
        return
    apply_gate, new_state = simulator.apply_gate, simulator.new_state
    h, ry, x = simulator.h, simulator.ry, simulator.x
    for qubits, repeats in KERNEL_SIZES:
        gates = (h(qubits - 1), x(0), ry(0.7, qubits // 2, ((qubits - 1, 1),)))
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            state = new_state(qubits)
            for gate in gates:
                apply_gate(state, gate)
            seconds.append(time.perf_counter() - start)
            del state
        out[f"q{qubits}"] = statistics.median(seconds) / len(gates)
    out["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(out))


def main(argv: list[str]) -> None:
    prepare_process()
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], int(argv[2]))
    elif argv == ["kernel"]:
        kernel()
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
