"""relmp: multi-relational graph construction, gated message passing, and an
instrumented FLOPs cost model, on a small recorded-op numpy tensor core.

Submodules and re-exports load lazily so that importing the bare package (as
the command-line entry point does to pin BLAS thread counts through
environment variables) does not itself import numpy.
"""

from .errors import (ConfigError, ContractError, DataError, GraphError,
                     NumericError, RelmpError, ShapeError)

__version__ = "0.1.0"

_LAZY = {
    "RelGraph": "graph", "rel_aggregate": "graph",
    "OpCounter": "tensor", "Tensor": "tensor", "count_flops": "tensor",
    "counting_paused": "tensor", "default_dtype": "tensor",
}

__all__ = [
    "ConfigError", "ContractError", "DataError", "GraphError", "NumericError",
    "RelmpError", "ShapeError", "__version__", *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
