"""README's library tour and CLI examples run as documented.

The ``python`` block under "## Library tour" runs in a fresh interpreter, so
a documented name or parameter that no longer exists fails here.  A line
that ends in a comment ``# ~<size>``, such as ``# ~1e-16``, states an error
size: its expression must come out below ten times that size.  Each line
of the ``sh`` block under "## Command line" runs through
``python -m squig.cli`` in a fresh directory: it must exit 0, and a JSON
document it writes must validate against its schema in ``squig.schemas``.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import squig

README = Path(__file__).resolve().parents[1] / "README.md"
SIZED = re.compile(r"^(?P<expr>[^#=]+?)\s*#\s*~(?P<size>\d[\d.]*e-?\d+)\s*$")
SCHEMAS = {"eval": "eval_record.schema.json", "verify": "verification_report.schema.json"}


def _env() -> dict:
    src = str(Path(squig.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout.splitlines()[-1])
    for value, size in zip(measured, sizes):
        assert value <= 10.0 * size, (value, size)


def cli_examples() -> list:
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_cli_example_runs_and_writes_a_valid_document(argv, tmp_path):
    assert argv[0] == "squig", argv
    proc = subprocess.run([sys.executable, "-m", "squig.cli", *argv[1:]], env=_env(),
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = (tmp_path / argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv \
        else proc.stdout
    command = argv[1]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if command == "grid":
        assert ET.fromstring(out).tag.endswith("svg")
    elif fmt == "json":
        doc = json.loads(out)
        if command in SCHEMAS:
            schema = resources.files("squig.schemas").joinpath(SCHEMAS[command]).read_text()
            jsonschema.validate(doc, json.loads(schema))
