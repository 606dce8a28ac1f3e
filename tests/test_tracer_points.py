"""Every fwdsim attribute the benchmark's layer tracer patches must exist.

``perfbench/tracer.py`` times and counts layers by swapping module and class
attributes of fwdsim for wrappers (``SPAN_POINTS`` and the list in
``CallCounter.install``). A rename or deletion in the package would break
``perfbench/run.py --trace 1`` without failing any other test here, so this
test installs both instrumentations, runs a short simulation under them and
checks that every patched attribute is restored on exit.
"""

import importlib.util
from pathlib import Path

import fwdsim
from fwdsim import ScenarioConfig, Simulation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_and_is_restored():
    tracer = load_tracer()
    originals = {}   # (owner, attribute) -> original, over both kinds
    real_patched = tracer.patched

    def recording_patched(fw, replacements):
        for path, attr, _ in replacements:
            owner = tracer._owner(fw, path)
            originals.setdefault((owner, attr), getattr(owner, attr))
        return real_patched(fw, replacements)

    tracer.patched = recording_patched
    spans, counter = tracer.SpanRecorder(), tracer.CallCounter()
    with spans.install(fwdsim), counter.install(fwdsim):
        Simulation(ScenarioConfig(seed=1, strategy="PDD-CR", horizon=20)).run()
    assert len(originals) > len(tracer.SPAN_POINTS)
    assert len(spans) > 0 and counter.counts["planner.compute_plan"] >= 1
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
