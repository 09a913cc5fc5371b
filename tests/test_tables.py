"""The kernel's table file: current with its builders, checked when read,
and shipped with the package.

``numerics`` reads the ODE pair's tables, the pole table and the corner
chart of every n from ``src/squig/_tables.bin``; ``squig.tablegen`` builds
them.  The file must hold what a fresh build gives: exactly for the
exact and float recurrences, within 2 ulps for the values that pass
through libm (``scale``, ``rate`` and the chart's radii), so the check does
not ask another platform's ``pow``, ``exp`` or ``log1p`` to agree to the
last bit.  The ODE tables are rebuilt at the stored ``scale`` only where
the fresh one differs from it.
"""

import math
import re
from pathlib import Path

import pytest

import squig
from squig import TableFileError, numerics, tablegen

PACKAGE = Path(squig.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
NS = range(numerics._MIN_N, numerics._MAX_N + 1)
STALE = f"the table file is stale; regenerate it with `{numerics._REGENERATE}`"


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_the_table_file_holds_a_fresh_build(tmp_path):
    fresh_path = tmp_path / "fresh.bin"
    fresh_path.write_bytes(tablegen._pack_tables())
    for n in NS:
        scale, sine, cosine, chart, rate, pole = numerics._read_block(numerics._TABLES_PATH, n)
        f_scale, f_sine, f_cosine, f_chart, f_rate, f_pole = numerics._read_block(
            str(fresh_path), n)
        assert ulps(scale, f_scale) <= 2 and ulps(rate, f_rate) <= 2, (n, STALE)
        if scale != f_scale:
            f_sine, f_cosine = tablegen._ode_tables(n, scale)
        assert (sine, cosine) == (f_sine, f_cosine), (n, STALE)
        assert len(pole) == len(f_pole), (n, STALE)
        assert pole == f_pole, (n, STALE)
        assert chart[0] == f_chart[0], (n, STALE)
        assert len(chart[1]) == len(f_chart[1]), (n, STALE)
        assert max(map(ulps, chart[1], f_chart[1])) <= 2, (n, STALE)


def test_the_kernel_reads_the_file():
    for n in (3, 8, 64):
        scale, sine, cosine, chart, rate, pole = numerics._read_block(numerics._TABLES_PATH, n)
        tables = numerics._series_tables(n)
        assert (tables.scale, tables.sine, tables.cosine, tables.chart) == (scale, sine, cosine,
                                                                           chart)
        assert (tables.pole, tables.rate) == (pole, rate)


def refused(path: Path, why: str):
    return pytest.raises(TableFileError, match=re.escape(str(path)) + ".*" + why)


@pytest.fixture(scope="module")
def table_bytes() -> bytes:
    return Path(numerics._TABLES_PATH).read_bytes()


def test_a_missing_file_is_refused(tmp_path):
    path = tmp_path / "absent.bin"
    with refused(path, "cannot be read"):
        numerics._read_block(str(path), 3)


@pytest.mark.parametrize("keep", [0, 19, 500, -8, -1])
def test_a_truncated_file_is_refused(tmp_path, table_bytes, keep):
    path = tmp_path / "short.bin"
    path.write_bytes(table_bytes[:keep])
    with refused(path, "short|bytes, not"):
        numerics._read_block(str(path), 3)


@pytest.mark.parametrize("field,value", [
    (slice(0, 8), b"squigtbl"),                           # magic
    (slice(8, 12), (2).to_bytes(4, "little")),            # format version
    (slice(12, 16), (4).to_bytes(4, "little")),           # first n
    (slice(16, 20), (65).to_bytes(4, "little")),          # last n
])
def test_a_wrong_header_is_refused(tmp_path, table_bytes, field, value):
    data = bytearray(table_bytes)
    data[field] = value
    path = tmp_path / "header.bin"
    path.write_bytes(bytes(data))
    with refused(path, "header"):
        numerics._read_block(str(path), 3)


def test_a_wrong_entry_or_trailing_bytes_are_refused(tmp_path, table_bytes):
    entry = numerics._TABLES_HEADER.size + 5 * numerics._TABLES_ENTRY.size
    data = bytearray(table_bytes)
    data[entry + 4:entry + 8] = (numerics.ODE_TERMS + 1).to_bytes(4, "little")
    path = tmp_path / "entry.bin"
    path.write_bytes(bytes(data))
    with refused(path, "wrong entry at n = 8"):
        numerics._read_block(str(path), 3)
    path.write_bytes(table_bytes + bytes(8))
    with refused(path, "bytes, not"):
        numerics._read_block(str(path), 3)


def test_the_refusal_names_the_regeneration_command(tmp_path):
    path = tmp_path / "absent.bin"
    with pytest.raises(TableFileError) as info:
        numerics._read_block(str(path), 3)
    assert numerics._REGENERATE in str(info.value)
    assert numerics._REGENERATE in (PACKAGE.parents[1] / "README.md").read_text()


def test_every_data_file_of_the_package_is_package_data():
    # a wheel built from pyproject.toml ships only the listed globs, and
    # without _tables.bin no context can be made
    tomllib = pytest.importorskip("tomllib")
    globs = tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"]["package-data"]["squig"]
    listed = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {path for path in PACKAGE.rglob("*") if path.is_file()
            and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts}
    assert PACKAGE / "_tables.bin" in data
    assert sorted(map(str, data - listed)) == []
