"""The benchmark's tracer patches dsirr by name: every name must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = load_tracing()
    places = [p for ps in tracing.SPANS.values() for p in ps] + list(tracing.COUNTS)
    assert len(places) > 20
    before = {}
    for place in places:
        owner, attr = tracing._resolve(place)
        assert attr in owner.__dict__, place
        assert callable(owner.__dict__[attr]), place
        before[place] = owner.__dict__[attr]
    # entering patches every place and leaving restores it
    with tracing.Tracer():
        pass
    for place, fn in before.items():
        owner, attr = tracing._resolve(place)
        assert owner.__dict__[attr] is fn, place
