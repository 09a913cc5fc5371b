"""README's library tour runs as documented.

The ``python`` block under "## Library tour" runs in a fresh interpreter, so
a documented name or parameter that no longer exists fails here.  A line
that ends in a comment ``# ~<size>``, such as ``# ~1e-16``, states an error
size: its expression must come out below ten times that size.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import squig

README = Path(__file__).resolve().parents[1] / "README.md"
SIZED = re.compile(r"^(?P<expr>[^#=]+?)\s*#\s*~(?P<size>\d[\d.]*e-?\d+)\s*$")


def tour_lines() -> list:
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_tour_runs_and_keeps_its_error_sizes():
    lines, sizes = [], []
    for line in tour_lines():
        match = SIZED.match(line)
        if match:
            sizes.append(float(match["size"]))
            line = f"_measured.append(float({match['expr'].strip()}))"
        lines.append(line)
    assert len(sizes) >= 2
    code = "\n".join(["import json", "_measured = []", *lines,
                      "print(json.dumps(_measured))"])
    src = str(Path(squig.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout.splitlines()[-1])
    for value, size in zip(measured, sizes):
        assert value <= 10.0 * size, (value, size)
