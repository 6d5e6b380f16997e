"""The traced benchmark run patches depmeasures functions by name.

``perfbench/tracing.py`` is read here, not imported, so the test writes
nothing under ``perfbench/``.  A refactor that renames or removes a traced
function fails this test instead of breaking the traced run.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Wrapped by the tracer's search counters besides the spans.
COUNTED = [("sharpness_search", "_propose"), ("sharpness_search", "_anneal")]


def test_every_traced_name_resolves_to_a_callable():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    spans = namespace["SPANS"]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in [*spans, *COUNTED]
        if not callable(getattr(importlib.import_module(f"depmeasures.{mod}"), attr, None))
    ]
    assert not missing, f"traced names no longer exist: {missing}"

