"""Command-line front end: point evaluation, series tables, verification
reports, and SVG grid-image figures.

Output documents are deterministic byte sequences: JSON payloads are sorted
and schema-conforming, and SVG coordinates are fixed-precision.  ``eval``,
``series``, ``verify`` and ``constants`` write ``--format json`` (default) or
``csv``; ``grid`` writes SVG only.  ``--stable`` is a ``verify`` flag: it drops
the per-check runtime, the one field that varies, so repeated runs compare
equal.  Any other format, or ``--stable`` on another command, exits 2.

Exit codes: 0 success or all checks passing, 1 verification failure (a check
ran and missed its tolerance), 2 usage, 3 domain violation (the message names
the offending region), 4 numeric failure (for ``verify``: some check could not
produce a value; its report row still prints, with the failure sentinel as
``abs_error``).  No evaluation route raises a numeric error, so the other
commands exit 4 only on an unexpected ``SquigError``.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import re
import sys

from . import verify  # loaded lazily: its body runs at the first read, in `verify`
from .errors import DomainError, ParameterError, SquigError
from .geometry import SquigContext, make_context
from .squigfn import arcsin_n, cos_n, maclaurin, sin_n

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_GRID_CLIP_FACTOR = 3.5     # image window half-width in units of |A|
_SVG_PRECISION = "%.6f"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^([+-]?{_NUM}|[+-]?)i$")
_RE_BOTH = re.compile(rf"^([+-]?{_NUM})([+-](?:{_NUM})?)i$")


def parse_complex(text: str) -> complex:
    """Parse the single-token forms a, bi, a+bi, a-bi (decimal reals)."""
    s = text.strip()
    if _RE_REAL.match(s):
        return complex(float(s), 0.0)
    m = _RE_IMAG.match(s)
    if m:
        coeff = m.group(1)
        if coeff in ("", "+"):
            return 1j
        if coeff == "-":
            return -1j
        return complex(0.0, float(coeff))
    m = _RE_BOTH.match(s)
    if m:
        re_part = float(m.group(1))
        im_text = m.group(2)
        im_part = 1.0 if im_text == "+" else -1.0 if im_text == "-" else float(im_text)
        return complex(re_part, im_part)
    raise UsageError(f"cannot parse complex literal {text!r}; "
                     "expected a, bi, a+bi, or a-bi")


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--n expects an integer or comma list, got {text!r}")
    return values


def _parse_tol(entries: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in entries:
        name, sep, raw = entry.partition("=")
        if not sep:
            raise UsageError(f"--tol expects NAME=VALUE, got {entry!r}")
        try:
            out[name] = float(raw)
        except ValueError:
            raise UsageError(f"tolerance value {raw!r} is not a number")
    return out


# ---------------------------------------------------------------------------
# serialization helpers

def _c2d(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _json_doc(obj) -> bytes:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return text.encode()


def _csv_doc(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# eval

def cmd_eval(n: int, fn: str, z: complex, fmt: str) -> bytes:
    ctx = make_context(n)
    if fn in ("arcsin", "F"):
        value = arcsin_n(ctx, z)
        record_value, is_pole, residual = value, False, 0.0
    else:
        res = (sin_n if fn == "sin" else cos_n)(ctx, z)
        record_value, is_pole, residual = res.value, res.is_pole, res.residual
    if fmt == "json":
        return _json_doc({
            "n": n,
            "fn": fn,
            "input": _c2d(z),
            "value": None if record_value is None else _c2d(record_value),
            "is_pole": is_pole,
            "residual": residual,
        })
    v = record_value
    return _csv_doc(
        ["n", "fn", "input_re", "input_im", "value_re", "value_im",
         "is_pole", "residual"],
        [[n, fn, repr(z.real), repr(z.imag),
          "" if v is None else repr(v.real),
          "" if v is None else repr(v.imag),
          is_pole, repr(residual)]])


# ---------------------------------------------------------------------------
# series

def cmd_series(n: int, terms: int, fmt: str) -> bytes:
    from .series import radius_estimate

    ctx = make_context(n)
    series = maclaurin(ctx, terms)
    rows = [(d, c.numerator, c.denominator)
            for d, c in zip(series.degrees, series.coeffs)]
    estimate = radius_estimate(series) if series.term_count() >= 4 else None
    closed = abs(ctx.P)
    if fmt == "json":
        return _json_doc({
            "n": n,
            "terms": terms,
            "rows": [{"degree": d, "numerator": p, "denominator": q}
                     for d, p, q in rows],
            "radius_estimate": estimate,
            "radius_closed_form": closed,
        })
    data: list[list] = [[d, p, q] for d, p, q in rows]
    data.append(["radius_estimate", "" if estimate is None else repr(estimate), ""])
    data.append(["radius_closed_form", repr(closed), ""])
    return _csv_doc(["degree", "numerator", "denominator"], data)


# ---------------------------------------------------------------------------
# verify

def _report_dict(rep, stable: bool) -> dict:
    d = {
        "name": rep.name,
        "n": rep.n,
        "lhs": _c2d(rep.lhs),
        "rhs": _c2d(rep.rhs),
        "abs_error": rep.abs_error,
        "tolerance": rep.tolerance,
        "pass": rep.passed,
        "note": rep.note,
    }
    if not stable:
        d["runtime_ms"] = rep.runtime_ms
    return d


def cmd_verify(n_values: tuple[int, ...], only: tuple[str, ...] | None,
               tolerances: dict[str, float] | None, fmt: str,
               stable: bool) -> tuple[bytes, int]:
    cfg = verify.VerifyConfig(n_values=n_values, tolerances=tolerances,
                              families=tuple(only) if only else None)
    reports = verify.run_all(cfg)
    if any(r.abs_error == verify._FAIL_SENTINEL for r in reports):
        code = EXIT_NUMERIC
    elif all(r.passed for r in reports):
        code = EXIT_OK
    else:
        code = EXIT_VERIFY_FAILED
    if fmt == "json":
        return _json_doc([_report_dict(r, stable) for r in reports]), code
    header = ["name", "n", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
              "abs_error", "tolerance", "pass", "note"]
    if not stable:
        header.append("runtime_ms")
    rows = []
    for r in reports:
        row = [r.name, r.n, repr(r.lhs.real), repr(r.lhs.imag),
               repr(r.rhs.real), repr(r.rhs.imag), repr(r.abs_error),
               repr(r.tolerance), r.passed, r.note]
        if not stable:
            row.append(repr(r.runtime_ms))
        rows.append(row)
    return _csv_doc(header, rows), code


# ---------------------------------------------------------------------------
# grid figures

def _fmt_pt(z: complex) -> str:
    # y is negated so the figure keeps mathematical orientation
    return f"{_SVG_PRECISION % z.real},{_SVG_PRECISION % -z.imag}"


def _svg_polyline(points: list[complex], stroke: str, width: float) -> str:
    d = "M " + " L ".join(_fmt_pt(p) for p in points)
    return (f'<path d="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_SVG_PRECISION % width}"/>')


def _split_runs(points: list[complex | None]) -> list[list[complex]]:
    runs: list[list[complex]] = []
    cur: list[complex] = []
    for p in points:
        if p is None:
            if len(cur) > 1:
                runs.append(cur)
            cur = []
        else:
            cur.append(p)
    if len(cur) > 1:
        runs.append(cur)
    return runs


def _grid_image_F(ctx: SquigContext, density: int) -> list[list[complex]]:
    """Images of a polar grid on the base sector under the slit-plane map."""
    tau = ctx.tau
    curves = []
    samples = 96
    r_lo, r_hi = 0.15, 3.5
    for i in range(density):
        th = (i + 0.5) * tau / density
        ray = []
        for j in range(samples):
            r = r_lo * (r_hi / r_lo) ** (j / (samples - 1))
            ray.append(arcsin_n(ctx, r * cmath.exp(1j * th)))
        curves.append(ray)
    delta = 1e-3
    for j in range(density):
        r = r_lo * (r_hi / r_lo) ** ((j + 0.5) / density)
        arc = []
        for i in range(samples):
            th = delta + (tau - 2.0 * delta) * i / (samples - 1)
            arc.append(arcsin_n(ctx, r * cmath.exp(1j * th)))
        curves.append(arc)
    return curves


def _grid_image_sin(ctx: SquigContext, density: int, in_rosette,
                    poles: list[complex]) -> list[list[complex]]:
    """Images of a Cartesian grid restricted to the polygon under sine;
    ``in_rosette`` is ``regions.in_rosette``, which ``cmd_grid`` loads, and
    the grid skips the points near ``poles``."""
    half = abs(ctx.A) * 1.01
    clip = _GRID_CLIP_FACTOR * abs(ctx.A)
    samples = 72
    curves = []
    for horizontal in (True, False):
        for i in range(density):
            c = -half + (2.0 * half) * (i + 0.5) / density
            pts: list[complex | None] = []
            for j in range(samples):
                t = -half + (2.0 * half) * j / (samples - 1)
                z = complex(t, c) if horizontal else complex(c, t)
                if not in_rosette(ctx, z) or any(abs(z - p) < 0.08 * abs(ctx.P)
                                                 for p in poles):
                    pts.append(None)
                    continue
                res = sin_n(ctx, z)
                pts.append(None if res.is_pole or abs(res.value) > clip else res.value)
            curves.extend(_split_runs(pts))
    return curves


def cmd_grid(n: int, map_name: str, density: int) -> bytes:
    if not isinstance(density, int) or not 2 <= density <= 256:
        raise UsageError("grid density must lie in 2..256")
    from .regions import boundary_polyline, in_rosette

    ctx = make_context(n)
    # the poles of the n == 3 sine in the rosette, kept off its grid and marked
    poles = [ctx.P * r for r in ctx.roots] if map_name != "F" and n == 3 else []

    elements: list[str] = []
    drawn: list[complex] = []

    def draw(points: list[complex], stroke: str, width: float) -> None:
        elements.append(_svg_polyline(points, stroke, width))
        drawn.extend(points)

    scale = abs(ctx.A)
    if map_name == "F":
        outline = boundary_polyline(ctx, "pi", samples_per_edge=24)
        curves = _grid_image_F(ctx, density)
    else:
        outline = boundary_polyline(ctx, "omega", samples_per_edge=24)
        curves = _grid_image_sin(ctx, density, in_rosette, poles)
    for curve in curves:
        draw(curve, "#4477aa", 0.004 * scale)
    draw(outline, "#000000", 0.01 * scale)
    if map_name != "F":
        # slit rays of the image plane
        reach = _GRID_CLIP_FACTOR * scale
        for k in range(n):
            w = ctx.omega ** k
            draw([w, w * reach], "#aa3333", 0.012 * scale)
    labels = [("A", ctx.A), ("P", ctx.P), ("B", ctx.B)]

    lo_x = min(p.real for p in drawn)
    hi_x = max(p.real for p in drawn)
    lo_y = min(p.imag for p in drawn)
    hi_y = max(p.imag for p in drawn)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y)
    vb = (lo_x - pad, -(hi_y + pad), (hi_x - lo_x) + 2 * pad, (hi_y - lo_y) + 2 * pad)

    for name, pos in labels:
        elements.append(
            f'<text x="{_SVG_PRECISION % (pos.real * 1.06)}" '
            f'y="{_SVG_PRECISION % (-pos.imag * 1.06)}" '
            f'font-size="{_SVG_PRECISION % (0.06 * scale)}">{name}_{n}</text>')
    for pos in poles:
        elements.append(
            f'<circle cx="{_SVG_PRECISION % pos.real}" '
            f'cy="{_SVG_PRECISION % -pos.imag}" '
            f'r="{_SVG_PRECISION % (0.02 * scale)}" fill="#aa3333"/>')

    body = "\n".join(elements)
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{" ".join(_SVG_PRECISION % v for v in vb)}" '
        f'width="640" height="640">\n{body}\n</svg>\n')
    return svg.encode()


# ---------------------------------------------------------------------------
# constants

def cmd_constants(n: int, fmt: str) -> bytes:
    ctx = make_context(n)
    if fmt == "json":
        return _json_doc({
            "n": n,
            "pi_n": ctx.pi_n,
            "A_n": _c2d(ctx.A),
            "P_n": _c2d(ctx.P),
            "R_n": ctx.R,
        })
    return _csv_doc(
        ["n", "pi_n", "A_re", "A_im", "P_re", "P_im", "R_n"],
        [[n, repr(ctx.pi_n), repr(ctx.A.real), repr(ctx.A.imag),
          repr(ctx.P.real), repr(ctx.P.imag), repr(ctx.R)]])


# ---------------------------------------------------------------------------
# driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squig",
        description="Generalized trigonometric functions on the complex plane")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "csv")) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="FILE", default=None)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--fn", choices=("sin", "cos", "arcsin", "F"),
                        required=True)
    p_eval.add_argument("--z", required=True, metavar="COMPLEX")
    common(p_eval)

    p_series = sub.add_parser("series", help="inverse-map power series table")
    p_series.add_argument("--n", type=int, required=True)
    p_series.add_argument("--terms", type=int, required=True)
    common(p_series)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    p_verify.add_argument("--n", default="3,4,5,6,7,8", metavar="LIST")
    p_verify.add_argument("--only", action="append", default=[],
                          metavar="FAMILY")
    p_verify.add_argument("--tol", action="append", default=[],
                          metavar="NAME=VALUE")
    p_verify.add_argument("--stable", action="store_true",
                          help="omit the per-check runtime, the one field that varies")
    common(p_verify)

    p_grid = sub.add_parser("grid", help="SVG figure of grid images")
    p_grid.add_argument("--n", type=int, required=True)
    p_grid.add_argument("--map", choices=("F", "sin"), required=True)
    p_grid.add_argument("--density", type=int, default=12)
    common(p_grid, ("svg",))

    p_const = sub.add_parser("constants", help="print the named constants")
    p_const.add_argument("--n", type=int, required=True)
    common(p_const)

    return parser


def _emit(doc: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(doc)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        code = EXIT_OK
        if args.command == "eval":
            doc = cmd_eval(args.n, args.fn, parse_complex(args.z), args.format)
        elif args.command == "series":
            doc = cmd_series(args.n, args.terms, args.format)
        elif args.command == "verify":
            doc, code = cmd_verify(_parse_n_list(args.n),
                                   tuple(args.only) or None,
                                   _parse_tol(args.tol) or None,
                                   args.format, args.stable)
        elif args.command == "grid":
            doc = cmd_grid(args.n, args.map, args.density)
        else:
            doc = cmd_constants(args.n, args.format)
    except (UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        region = exc.region or "domain"
        print(f"domain error ({region}): {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SquigError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    _emit(doc, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
