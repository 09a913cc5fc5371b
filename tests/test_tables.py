"""The kernel's table file: current with its builders, checked when read,
and shipped with the package.

``numerics`` reads every per-n table from ``src/squig/_tables.bin``: F's
binomial tables at 0 and at infinity and its corner chart, the ODE pair's
tables and the pole table, with A and R = |P|; ``squig.tablegen`` builds
them.  The file must hold what a fresh build gives: exactly for the exact
recurrences' outputs, within 2 ulps for the values that pass through libm
(``scale``, A, R, ``rate`` and the radii of F's tables), so the check does
not ask another platform's ``pow``, ``exp`` or ``log1p`` to agree to the
last bit.  The ODE tables are rebuilt at the stored ``scale`` only where
the fresh one differs from it.  F's coefficients are also checked against
an exact computation that shares no code with the builder.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import squig
from squig import TableFileError, numerics, tablegen

PACKAGE = Path(squig.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
NS = range(numerics._MIN_N, numerics._MAX_N + 1)
STALE = f"the table file is stale; regenerate it with `{numerics._REGENERATE}`"
BLOCK = ("scale", "sine", "cosine", "inner", "outer", "chart", "half", "radius", "rate", "pole")


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.fixture(scope="module")
def fresh_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("tables") / "fresh.bin"
    path.write_bytes(tablegen._pack_tables())
    return str(path)


def test_the_table_file_holds_a_fresh_build(fresh_path):
    for n in NS:
        stored = dict(zip(BLOCK, numerics._read_block(numerics._TABLES_PATH, n)))
        fresh = dict(zip(BLOCK, numerics._read_block(fresh_path, n)))
        for name in ("scale", "half", "radius", "rate"):
            assert ulps(stored[name], fresh[name]) <= 2, (n, name, STALE)
        if stored["scale"] != fresh["scale"]:
            fresh["sine"], fresh["cosine"] = tablegen._ode_tables(n, stored["scale"])
        for name in ("sine", "cosine", "pole"):
            assert stored[name] == fresh[name], (n, name, STALE)
        for name in ("inner", "outer", "chart"):
            (coeffs, radii), (f_coeffs, f_radii) = stored[name], fresh[name]
            assert coeffs == f_coeffs, (n, name, STALE)
            assert len(radii) == len(f_radii), (n, name, STALE)
            assert max(map(ulps, radii, f_radii)) <= 2, (n, name, STALE)


def binomial_coefficients(n: int, d: int, terms: int) -> list:
    """c_k / (d + n k) with c_k = (beta)_k / k!, the binomial series of (1 - x)**(-beta)."""
    beta, c, out = Fraction(n - 1, n), Fraction(1), []
    for k in range(terms):
        out.append(c / (d + n * k))
        c *= (beta + k) / (k + 1)
    return out


def chart_coefficients(n: int, terms: int) -> list:
    """g_k / (n k + 1) with g = h**(-beta), h(delta) = (1 - (1-delta)**n) / (n delta),
    by the binomial theorem rather than Miller's recurrence: with h = 1 + e,
    g = sum_m binom(-beta, m) e**m, and n e has the integer coefficients
    comb(n, j+1) (-1)**j, j >= 1, so e**m is an integer series over n**m."""
    ne = [0] + [math.comb(n, j + 1) * (-1) ** j for j in range(1, n)]
    power, binom, g = [1] + [0] * (terms - 1), Fraction(1), [Fraction(0)] * terms
    for m in range(terms):  # e**m starts at delta**m
        for k in range(m, terms):
            g[k] += binom * Fraction(power[k], n**m)
        power = [sum(power[i] * ne[k - i] for i in range(max(0, k - n + 1), k))
                 for k in range(terms)]
        binom *= (Fraction(1 - n, n) - m) / (m + 1)
    return [a / (n * k + 1) for k, a in enumerate(g)]


@pytest.mark.parametrize("n", [3, 8, 64])
def test_f_tables_are_the_exact_values_rounded_once(fresh_path, n):
    exact = {"inner": lambda terms: binomial_coefficients(n, 1, terms),
             "outer": lambda terms: binomial_coefficients(n, n - 2, terms),
             "chart": lambda terms: chart_coefficients(n, terms)}
    for path in (numerics._TABLES_PATH, fresh_path):
        block = dict(zip(BLOCK, numerics._read_block(path, n)))
        for name, build in exact.items():
            coeffs = block[name][0]
            assert coeffs == [float(c) for c in build(len(coeffs))], (n, name, path)


def test_the_kernel_reads_the_file():
    for n in (3, 8, 64):
        block = numerics._read_block(numerics._TABLES_PATH, n)
        tables = numerics._series_tables(n)
        assert {name: getattr(tables, name) for name in BLOCK} == dict(zip(BLOCK, block))


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
    (slice(8, 12), (1).to_bytes(4, "little")),            # format version
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
