"""The tests spawn ``python -m epwcalc.cli`` as child processes; put this
checkout's ``src`` on their path, so that they import the same ``epwcalc``
as the tests do (``pythonpath`` in ``pyproject.toml`` covers only the test
process itself)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
