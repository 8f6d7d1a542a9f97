"""The README's library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    expected = code.rstrip().splitlines()[-1]
    assert expected.startswith("# "), expected
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected[2:] + "\n"
