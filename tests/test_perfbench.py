"""The benchmark's instrumentation still finds every name it wraps.

`perfbench/instrument.py` replaces relmp functions and ops by qualified name;
a renamed or deleted function would make its metrics read 0 silently. This
imports the module as it is and resolves each name on relmp.
"""

import importlib
import importlib.util
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def test_every_wrapped_name_resolves_on_relmp():
    spec = importlib.util.spec_from_file_location("perfbench_instrument",
                                                  INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    missing = []
    for module, qualname in instrument.TRACED + instrument.OPS:
        owner = importlib.import_module(f"relmp.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert not missing
