"""The benchmark's per-layer trace finds the qkmeans layers by name.

``bench/spans.py`` wraps module attributes such as ``clustering.simulate``;
a rename in qkmeans would leave its span empty without any error, so every
span must still resolve to at least one attribute.
"""

import importlib.util
from pathlib import Path

from qkmeans import clustering, metrics

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_spans()
    declared = {span for _, _, span in spans.WRAPPED}
    present = spans.present_spans({"clustering": clustering,
                                   "metrics": metrics})
    assert present == declared, sorted(declared - present)
