"""The benchmark still runs against the code it measures.

`perfbench/instrument.py` replaces relmp functions and ops by qualified name;
a renamed or deleted function would make its metrics read 0 silently. This
imports the module as it is and resolves each name on relmp. Each workload
of `perfbench/workloads.py` is run once at each size and must pass its own
checks against `perfbench/reference.json`, so a change of relmp's types or
signatures that breaks them fails here too. The image and protein workloads
run as `perfbench/run.py` runs them: under a `Scopes` root counter, which
the image check compares with the pinned forward FLOPs, and with the
`GrmpProbe` installed, whose per-call costs must equal the cost model's.
"""

import functools
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_on_relmp():
    instrument = _load("instrument")
    missing = []
    for module, qualname in instrument.TRACED + instrument.OPS:
        owner = importlib.import_module(f"relmp.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert not missing


@pytest.mark.parametrize("size", ["smoke", "full"])
@pytest.mark.parametrize("workload", ["kg_train", "kg_eval"])
def test_kg_workloads_pass_their_checks(workload, size):
    reference = json.loads((BENCH_DIR / "reference.json").read_text(
        encoding="utf-8"))[size][workload]
    wl = _load("workloads").WORKLOADS[workload](size == "smoke")
    state = wl.setup(reference["seed"])
    it = wl.iterate(state, None)
    assert it.failures + wl.check(state, it, reference) == []


@pytest.mark.parametrize("size", ["smoke", "full"])
@pytest.mark.parametrize("workload", ["image_step", "protein_encode"])
def test_model_workloads_pass_their_checks_under_the_probe(workload, size):
    instrument, workloads = _load("instrument"), _load("workloads")
    reference = json.loads((BENCH_DIR / "reference.json").read_text(
        encoding="utf-8"))[size][workload]
    wl = workloads.WORKLOADS[workload](size == "smoke")
    state = wl.setup(0)
    scopes = instrument.Scopes()
    probe = instrument.GrmpProbe(scopes)
    with probe.install():
        with scopes.root() as root:
            it = wl.iterate(state, root)
        failures = it.failures + wl.check(state, it, reference)
    assert failures + workloads.check_grmp_calls(probe.calls) == []
