"""Lets the tests that run `python -m relmp` in a child process import the
package from src/ when it is not installed (pyproject's `pythonpath` setting
covers only the pytest process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
