"""The traced benchmark run patches depmeasures functions by name.

``perfbench/tracing.py`` is read here, not imported, so the test writes
nothing under ``perfbench/``.  A refactor that renames or removes a traced
function fails this test instead of breaking the traced run; so does one
that changes how the tracer's search counters call ``_propose`` and
``_anneal`` (``objective_fn`` by position).
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Wrapped by the tracer's search counters besides the spans.
COUNTED = [("sharpness_search", "_propose"), ("sharpness_search", "_anneal")]


def _tracing() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_to_a_callable():
    spans = _tracing()["SPANS"]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in [*spans, *COUNTED]
        if not callable(getattr(importlib.import_module(f"depmeasures.{mod}"), attr, None))
    ]
    assert not missing, f"traced names no longer exist: {missing}"


def test_traced_search_and_fuzz_fill_the_layer_metrics():
    import depmeasures.cli  # noqa: F401  (the tracer patches cli.run as well)
    from depmeasures import sharpness_search, theorem_suite

    tracing = _tracing()
    tracer = tracing["Tracer"]()
    cfg = sharpness_search.SearchConfig(shape=(2, 2), tau_cap=0.5, budget=15, restarts=2, seed=1)
    with tracer.install():
        sharpness_search.search_max_rho(cfg)
        theorem_suite.fuzz(shapes=[(2, 2)], styles=["dense"], count=2, seed=1)
    metrics = tracing["layer_metrics"](tracer.spans, 0, len(tracer.spans), tracer.counts, 0)
    assert metrics["sharpness_search.proposals"] > 0
    assert 0.0 < metrics["sharpness_search.feasible_ratio"] <= 1.0
    assert metrics["measures.event_statistic.self_s"] > 0.0
