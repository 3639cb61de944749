"""The benchmark's tracer (``perfbench/spans.py``) wraps names that ``src/`` still defines."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [span for owner, attr, span, _ in spans.targets() if not callable(getattr(owner, attr, None))]
    assert not missing, f"the tracer wraps names that are gone: {missing}"
