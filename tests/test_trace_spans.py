"""The benchmark's probes find the qkmeans names they measure.

``bench/spans.py`` wraps module attributes such as ``clustering.simulate``,
and ``bench/probe.py kernel`` times ``qkmeans.simulator`` functions; a
rename in qkmeans would leave a span empty, or the kernel metrics absent,
without any error.
"""

import importlib.util
import json
from pathlib import Path

from qkmeans import clustering, metrics

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
