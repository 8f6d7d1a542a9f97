"""Suite-wide setup.

Some tests run `python -m thetajordan` in a child process.  The
`pythonpath` setting in pyproject.toml puts `src` on this process's
sys.path only, so the children get the same package through PYTHONPATH.
The assertions of tests/helpers.py, where the planted runs are checked,
are rewritten as a test module's are.
"""

import os
from pathlib import Path

import pytest

import thetajordan

pytest.register_assert_rewrite("helpers")

_root = str(Path(thetajordan.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_root, os.environ.get("PYTHONPATH")) if p
)
