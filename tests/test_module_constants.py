"""Module-level constants of relmp are never NumPy floating scalars.

Under NumPy 2's scalar promotion (NEP 50) a NumPy float64 scalar turns a
float32 array into float64, while a Python float keeps the array's dtype. A
constant such as `np.sqrt(2.0)` stored at module level would silently widen
every float32 op that uses it, so constants are kept as Python floats. Arrays
are allowed.
"""

import importlib
import pkgutil

import numpy as np

import relmp


def test_no_module_level_numpy_float_scalars():
    names = [m.name for m in pkgutil.iter_modules(relmp.__path__, "relmp.")
             if m.name != "relmp.__main__"]     # running it starts the CLI
    assert "relmp.tensor" in names
    found = []
    for name in names:
        module = importlib.import_module(name)
        found += [f"{name}.{attr}" for attr, value in vars(module).items()
                  if isinstance(value, np.floating)]
    assert not found, found
