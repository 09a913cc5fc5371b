"""Quadrature, branch tracking, series reversion, and root finding.

This module owns the low-level numerical machinery: a double-exponential
(tanh-sinh) rule for integrals with algebraic endpoint singularities, an
adaptive 15-point Gauss-Kronrod rule for smooth complex legs, continuous
branch tracking for the multivalued power (1 - z**n)**(-(n-1)/n), exact
rational series reversion, the binomial series of the sector map at 0 and
at infinity, a damped Newton inverter, and a discrete winding-number count.

Integrands may be passed in two forms:

* ``f(x)`` -- plain callable of one real argument.
* ``f(x, dl, dr)`` -- offset-aware callable that additionally receives the
  exact distances ``dl = x - a`` and ``dr = b - x`` to the interval ends.

The offset-aware form matters near endpoint singularities: for nodes placed
within a few ulps of an endpoint, ``x`` alone can no longer resolve the
distance to the endpoint, while ``dl``/``dr`` are computed exactly by the
transformation.  Library-internal integrands always use the second form.
Plain integrands with known singularity exponents are regularized by
extrapolating their smooth factor onto the last stretch before the endpoint,
which limits them to roughly 1e-9 absolute accuracy.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import inspect
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    BranchAmbiguityError,
    ConvergenceError,
    DegenerateLoopError,
    DivergenceError,
    InvalidSeriesError,
    ParameterError,
    QuadratureError,
    RefinementNeededError,
    SingularityError,
)

TWO_PI = 2.0 * math.pi

# Hard floor used to detect evaluation on top of a branch point.
_BRANCH_POINT_EPS = 1e-300

# Default absolute tolerance for quadratures; individual ops may tighten it.
DEFAULT_QUAD_TOL = 1e-12


def _max_quad_level(default: int = 10) -> int:
    raw = os.environ.get("SQUIG_MAX_QUAD_LEVEL")
    if raw is None:
        return default
    try:
        level = int(raw)
    except ValueError as exc:
        raise ParameterError(f"SQUIG_MAX_QUAD_LEVEL must be an integer, got {raw!r}") from exc
    if not 3 <= level <= 16:
        raise ParameterError("SQUIG_MAX_QUAD_LEVEL must lie in 3..16")
    return level


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its error estimate.

    err_estimate is the change produced by the final level doubling (or the
    final adaptive refinement), so it bounds what one more refinement would
    move the value by, for integrands the rules are designed for.
    """

    value: complex
    err_estimate: float
    evaluations: int

    @property
    def real(self) -> float:
        return self.value.real


def _wants_offsets(f) -> bool:
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        return False
    count = 0
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            count += 1
        elif p.kind == p.VAR_POSITIONAL:
            return True
    return count >= 3


# ---------------------------------------------------------------------------
# tanh-sinh rule
# ---------------------------------------------------------------------------

def _tanh_sinh_nodes(h: float, odd_only: bool):
    """Yield (t, q, weight_factor) with q = (1 - tanh((pi/2) sinh t)) / 2.

    The weight factor is d x / d t divided by (b - a), i.e.
    pi * cosh(t) * q * (1 - q).  Iteration stops once q underflows; the
    caller additionally stops when contributions become negligible.
    """
    k = 1 if odd_only else 0
    step = 2 if odd_only else 1
    while True:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        if u > 360.0:  # q underflows double precision shortly after this
            e = math.exp(-2.0 * u) if u < 745.0 else 0.0
            q = e
        else:
            e = math.exp(-2.0 * u)
            q = e / (1.0 + e)
        if q == 0.0:
            return
        w = math.pi * math.cosh(t) * q * (1.0 - q)
        yield t, q, w
        k += step


def _tanh_sinh(f3, a: float, b: float, tol: float, max_level: int):
    """Core tanh-sinh iteration; f3(x, dl, dr) -> complex."""
    width = b - a
    if width <= 0.0:
        raise ParameterError("tanh-sinh requires a < b")

    evals = 0

    def node_value(q: float, mirrored: bool) -> complex:
        nonlocal evals
        dr = width * q
        dl = width - dr
        if mirrored:
            dl, dr = dr, dl
            x = a + dl
        else:
            x = b - dr
        evals += 1
        return f3(x, dl, dr)

    def level_sum(h: float, odd_only: bool) -> complex:
        total = 0j
        small_run = 0
        for t, q, w in _tanh_sinh_nodes(h, odd_only):
            if t == 0.0:
                continue
            term = w * (node_value(q, False) + node_value(q, True))
            total += term
            if abs(term) * h * width < tol * 1e-3 and t > 3.0:
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
        return total

    # Level 0: h = 0.5 over all integer nodes; t = 0 contributes pi/4 * f(mid).
    h = 0.5
    total = (math.pi * 0.25) * node_value(0.5, False) + level_sum(h, odd_only=False)
    estimate = total * h * width
    history = [estimate]

    err = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        partial = level_sum(h, odd_only=True)
        new_estimate = 0.5 * history[-1] + partial * h * width
        err = abs(new_estimate - history[-1])
        history.append(new_estimate)
        if err <= max(tol, 1e-15 * abs(new_estimate)) and level >= 2:
            return new_estimate, max(err, 1e-16 * abs(new_estimate)), evals, history
    # Marginal misses at the level cap are still useful results as long as
    # the error estimate is honest; only a real stall is an error.
    if err <= 100.0 * tol:
        return history[-1], err, evals, history
    raise QuadratureError(
        f"tanh-sinh did not reach tol={tol:g} within {max_level} levels "
        f"(last change {err:g})",
        last_estimates=history[-2:],
    )


def _regularized(f, a: float, b: float, left_exp: float, right_exp: float):
    """Wrap a plain integrand into offset-aware form.

    The smooth factor s(x) = f(x) * dl**left_exp * dr**right_exp is sampled
    just outside a safety band and extrapolated linearly across it, so the
    wrapped integrand stays meaningful where x can no longer resolve the
    offset.  Exponent zero on a side disables the treatment there.
    """
    width = b - a
    safe = 3e-8 * width

    def smooth(x: float, dl: float, dr: float) -> complex:
        return f(x) * dl ** left_exp * dr ** right_exp

    models = {}

    def model(side: str):
        if side in models:
            return models[side]
        if side == "left":
            d1, d2 = safe, 2.0 * safe
            s1 = smooth(a + d1, d1, width - d1)
            s2 = smooth(a + d2, d2, width - d2)
        else:
            d1, d2 = safe, 2.0 * safe
            s1 = smooth(b - d1, width - d1, d1)
            s2 = smooth(b - d2, width - d2, d2)
        slope = (s2 - s1) / (d2 - d1)
        models[side] = (s1, d1, slope)
        return models[side]

    def wrapped(x: float, dl: float, dr: float) -> complex:
        if left_exp > 0.0 and dl < safe:
            s0, d0, slope = model("left")
            s = s0 + slope * (dl - d0)
            return s * dl ** (-left_exp) * dr ** (-right_exp)
        if right_exp > 0.0 and dr < safe:
            s0, d0, slope = model("right")
            s = s0 + slope * (dr - d0)
            return s * dl ** (-left_exp) * dr ** (-right_exp)
        return f(x)

    return wrapped


def integrate_endpoint_singular(f, a: float, b: float,
                                left_exp: float = 0.0, right_exp: float = 0.0,
                                tol: float = DEFAULT_QUAD_TOL,
                                max_level: int | None = None) -> QuadratureResult:
    """Integrate f over [a, b] allowing algebraic endpoint singularities.

    left_exp / right_exp are the singularity orders (f ~ dl**-left_exp near a,
    f ~ dr**-right_exp near b); both must be < 1 so the integral converges.
    Offset-aware integrands f(x, dl, dr) get full double-precision accuracy;
    plain integrands are regularized using the exponents, which costs a little
    accuracy near the endpoints (about 1e-9 absolute at worst).
    """
    if not (left_exp < 1.0 and right_exp < 1.0):
        raise DivergenceError(
            f"endpoint exponents must be < 1 for an integrable singularity, "
            f"got ({left_exp}, {right_exp})")
    if max_level is None:
        max_level = _max_quad_level()
    floor = 0.0
    if _wants_offsets(f):
        f3 = f
    elif left_exp > 0.0 or right_exp > 0.0:
        f3 = _regularized(f, a, b, left_exp, right_exp)
        # The endpoint extrapolation band limits what plain integrands can
        # achieve; below this the level iteration only chases its own noise.
        floor = 2e-9
    else:
        f3 = lambda x, dl, dr: f(x)
    value, err, evals, _ = _tanh_sinh(f3, a, b, max(tol, floor), max_level)
    return QuadratureResult(value, max(err, floor * 0.5), evals)


def endpoint_singular_levels(f3, a: float, b: float,
                             tol: float = DEFAULT_QUAD_TOL,
                             max_level: int | None = None) -> list:
    """Per-level tanh-sinh estimates; used to test convergence behaviour."""
    if max_level is None:
        max_level = _max_quad_level()
    _, _, _, history = _tanh_sinh(f3, a, b, tol, max_level)
    return history


def integrate_tail(f, a: float, decay_exp: float,
                   tol: float = DEFAULT_QUAD_TOL,
                   max_level: int | None = None) -> QuadratureResult:
    """Integrate f from a to infinity given algebraic decay |f| ~ t**-decay_exp.

    The tail beyond max(a, 1) is folded onto a bounded interval with u = 1/t.
    decay_exp must exceed 1 or the integral diverges.  An integrable
    singularity of f at a itself is handled by the endpoint rule; offset-aware
    integrands receive dl = t - a exactly.
    """
    if decay_exp <= 1.0:
        raise DivergenceError(
            f"decay exponent {decay_exp} <= 1: tail integral diverges")
    if a < 0.0:
        raise ParameterError("tail integration requires a >= 0")
    if max_level is None:
        max_level = _max_quad_level()

    offsets = _wants_offsets(f)
    cut = max(a, 1.0)
    total = 0j
    err = 0.0
    evals = 0

    if a < cut:
        if offsets:
            head = lambda x, dl, dr: f(x, dl, math.inf)
        else:
            head = lambda x, dl, dr: f(x)
        v, e, ne, _ = _tanh_sinh(head, a, cut, tol * 0.5, max_level)
        total += v
        err += e
        evals += ne

    # Substituted tail: integral over u in (0, 1/cut] of f(1/u) / u**2.
    # dl_t = t - a maps to (1 - a*u)/u; exact at the u = 1/cut end when a = cut.
    inv_cut = 1.0 / cut

    def eval_f(t: float) -> complex:
        if offsets:
            return f(t, t - a, math.inf)
        return f(t)

    # The substituted integrand behaves like u**(decay_exp - 2) near u = 0;
    # estimate its scale once and drop nodes whose whole remaining mass is
    # negligible, so f is never evaluated at overflow-inducing arguments.
    t_ref = 8.0 * cut
    scale = abs(eval_f(t_ref)) * t_ref ** decay_exp
    chop_mass = tol * 1e-2

    def tail_part(u: float, dl: float, dr: float) -> complex:
        if scale > 0.0:
            remaining = scale * u ** (decay_exp - 1.0) / (decay_exp - 1.0)
            if remaining < chop_mass:
                return 0j
        t = 1.0 / u
        if offsets:
            if a == cut:
                dl_t = a * dr * t  # t - a = a*(1/cut - u)/u exactly
            else:
                dl_t = (1.0 - a * u) * t
            val = f(t, dl_t, math.inf)
        else:
            val = f(t)
        return val * t * t

    v, e, ne, _ = _tanh_sinh(tail_part, 0.0, inv_cut, tol * 0.5, max_level)
    total += v
    err += e
    evals += ne
    return QuadratureResult(total, max(err, 1e-16 * abs(total)), evals)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15 on complex-valued legs
# ---------------------------------------------------------------------------

# Standard 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]).
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a: float, b: float):
    """One 15-point Gauss-Kronrod panel.

    Returns (kronrod, error, abs_integral, evals); abs_integral feeds the
    roundoff floor below which refinement cannot help.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    kabs = _WGK[7] * abs(fc)
    for i in range(7):
        x = half * _XGK[i]
        fa = f(mid - x)
        fb = f(mid + x)
        both = fa + fb
        kron += _WGK[i] * both
        kabs += _WGK[i] * (abs(fa) + abs(fb))
        if i % 2 == 1:
            gauss += _WG[i // 2] * both
    kron *= half
    gauss *= half
    kabs *= abs(half)
    return kron, abs(kron - gauss), kabs, 15


def integrate_smooth(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL,
                     max_evals: int = 400_000) -> QuadratureResult:
    """Adaptive GK15 for a smooth (complex-valued) integrand on [a, b].

    Globally adaptive: the panel with the largest error estimate is split
    until the summed estimate meets the tolerance or its roundoff floor.
    """
    import heapq

    val, err, kabs, evals = _gk15(f, a, b)
    # Heap entries: (-err, tiebreak, lo, hi, val, kabs).
    counter = 0
    heap = [(-err, counter, a, b, val, kabs)]
    total_err = err
    total_kabs = kabs
    while total_err > max(tol, 2e-16 * total_kabs):
        neg_err, _, lo, hi, pval, pkabs = heapq.heappop(heap)
        perr = -neg_err
        if perr <= 1e-15 * pkabs or (hi - lo) < 1e-15 * max(abs(lo), abs(hi), 1.0):
            # Roundoff floor: no panel can improve; accept the current sum.
            heapq.heappush(heap, (neg_err, counter + 1, lo, hi, pval, pkabs))
            break
        if evals > max_evals:
            raise QuadratureError(
                f"adaptive GK15 exceeded {max_evals} evaluations "
                f"(error estimate {total_err:g}, target {tol:g})",
                last_estimates=[sum(e[4] for e in heap) + pval])
        mid = 0.5 * (lo + hi)
        v1, e1, k1, n1 = _gk15(f, lo, mid)
        v2, e2, k2, n2 = _gk15(f, mid, hi)
        evals += n1 + n2
        total_err += e1 + e2 - perr
        total_kabs += k1 + k2 - pkabs
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, k1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, k2))
    value = sum(entry[4] for entry in heap)
    return QuadratureResult(value, max(total_err, 2e-16 * abs(value)), evals)


# ---------------------------------------------------------------------------
# Branch tracking for (1 - z**n) ** (-(n-1)/n)
# ---------------------------------------------------------------------------

def nth_roots(n: int) -> tuple:
    return tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))


def nearest_root_distance(n: int, z: complex) -> float:
    """Distance from z to the nearest n-th root of unity."""
    phi = cmath.phase(z)
    k = round(phi * n / TWO_PI)
    best = math.inf
    for kk in (k - 1, k, k + 1):
        root = cmath.exp(2j * math.pi * kk / n)
        best = min(best, abs(z - root))
    return best


class BranchTracker:
    """Continuously tracked argument of w(z) = 1 - z**n along a path.

    A fresh tracker starts at z = 0 where w = 1 and the argument is 0 (the
    principal branch).  Each update unwraps the principal argument of w
    against the current state; steps must move the argument by less than
    pi/2, except for the two sanctioned boundary-ray crossings through the
    roots at angle 0 and 2*pi/n, where the argument jumps by -pi (outward on
    the lower ray) or +pi (outward on the upper ray).  These jump signs make
    the branch the continuous extension from inside the sector
    0 < arg z < 2*pi/n.
    """

    __slots__ = ("n", "current_arg", "last_z")

    def __init__(self, n: int):
        if n < 2:
            raise ParameterError("branch tracking requires n >= 2")
        self.n = n
        self.current_arg = 0.0
        self.last_z = 0j

    def copy(self) -> "BranchTracker":
        other = BranchTracker(self.n)
        other.current_arg = self.current_arg
        other.last_z = self.last_z
        return other

    def _crossing_jump(self, z: complex) -> float:
        # Only the two boundary rays of the base sector have a defined
        # continuation through their root; decide the jump sign from the ray
        # and the marching direction.
        phi = cmath.phase(z) % TWO_PI
        step = TWO_PI / self.n
        m = round(phi / step) % self.n
        ray_angle = m * step
        off = abs(((phi - ray_angle) + math.pi) % TWO_PI - math.pi)
        if off > 1e-9 * max(1.0, abs(z)) and off > 1e-12:
            raise BranchAmbiguityError(
                f"argument step of size ~pi away from a sector boundary ray "
                f"(z={z:.6g}); refine the path")
        outward = abs(z) >= abs(self.last_z)
        if m == 0:
            return -math.pi if outward else math.pi
        if m == 1:
            return math.pi if outward else -math.pi
        raise BranchAmbiguityError(
            f"crossing through a root on ray {m} has no sanctioned branch "
            f"continuation; displace the path into the sector")

    def update(self, z: complex) -> float:
        w = 1.0 - z ** self.n
        if abs(w) < _BRANCH_POINT_EPS:
            raise SingularityError(f"z={z:.6g} sits on a branch point")
        phi = cmath.phase(w)
        k = round((self.current_arg - phi) / TWO_PI)
        theta = phi + TWO_PI * k
        delta = theta - self.current_arg
        if abs(delta) < 0.5 * math.pi * (1.0 - 1e-12):
            self.current_arg = theta
        elif abs(abs(delta) - math.pi) < 1e-6:
            self.current_arg += self._crossing_jump(z)
        else:
            raise BranchAmbiguityError(
                f"branch step too large: tracked argument moved by {delta:.4f} "
                f"(>= pi/2) between {self.last_z:.6g} and {z:.6g}")
        self.last_z = z
        return self.current_arg


def branch_power(tracker: BranchTracker, z: complex) -> complex:
    """(1 - z**n) ** (-(n-1)/n) on the branch tracked by ``tracker``.

    Advances the tracker to z.  Raises SingularityError at the roots of
    unity and BranchAmbiguityError when the step is too large to unwrap.
    """
    n = tracker.n
    w = 1.0 - z ** n
    mag = abs(w)
    if mag < 1e-15:
        raise SingularityError(
            f"branch_power evaluated within guard distance of a root of "
            f"unity (|1 - z^n| = {mag:.3g})")
    theta = tracker.update(z)
    beta = (n - 1) / n
    return mag ** (-beta) * cmath.exp(-1j * beta * theta)


def principal_power(n: int, z: complex, exponent: float) -> complex:
    """(1 - z**n) ** exponent on the principal branch.

    Valid verbatim throughout the open sector 0 < arg z < 2*pi/n (and on the
    parts of its boundary rays before the roots of unity), where 1 - z**n
    never meets the negative real axis.
    """
    w = 1.0 - z ** n
    if w == 0:
        raise SingularityError(f"z={z:.6g} is a root of unity")
    return cmath.exp(exponent * cmath.log(w))


# ---------------------------------------------------------------------------
# Paths and path integration of the arcsine integrand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear path (node list) for branch-tracked integration."""

    nodes: tuple
    max_step: float | None = None

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ParameterError("a path needs at least two nodes")
        if self.max_step is not None and self.max_step <= 0:
            raise ParameterError("max_step must be positive")


def make_path(n: int, nodes, max_step: float | None = None) -> PathSpec:
    """Build a PathSpec, inserting nodes so steps satisfy the step rule.

    Without an explicit max_step every step is capped at
    0.05 * min(1, distance to the nearest root of unity) measured at the
    step midpoint, which keeps branch unwrapping unambiguous.
    """
    nodes = [complex(v) for v in nodes]
    refined = [nodes[0]]
    for a, b in zip(nodes, nodes[1:]):
        stack = [(a, b)]
        out = []
        while stack:
            lo, hi = stack.pop()
            mid = 0.5 * (lo + hi)
            if max_step is not None:
                cap = max_step
            else:
                cap = 0.05 * min(1.0, max(nearest_root_distance(n, mid), 1e-3))
            if abs(hi - lo) > cap and abs(hi - lo) > 1e-9:
                stack.append((mid, hi))
                stack.append((lo, mid))
            else:
                out.append((lo, hi))
        for _, hi in out:
            refined.append(hi)
    return PathSpec(tuple(refined), max_step)


def _root_on_segment(n: int, a: complex, b: complex):
    """Return the root of unity lying on open segment (a, b), if any."""
    length = abs(b - a)
    if length == 0:
        return None
    direction = (b - a) / length
    for root in nth_roots(n):
        s = ((root - a) / direction).real
        off = abs(root - (a + s * direction))
        if 1e-12 < s < length - 1e-12 and off < 1e-9:
            return root
    return None


def _integrate_leg_tracked(n: int, za: complex, zb: complex,
                           tracker: BranchTracker, tol: float,
                           state: dict) -> complex:
    """Adaptive GK15 along [za, zb] with sequential branch unwrapping."""
    beta = (n - 1) / n
    seg = zb - za

    class _Refine(Exception):
        pass

    def panel(lo: float, hi: float, arg_lo: float):
        # Evaluate all 15 nodes in position order, unwrapping the argument
        # of 1 - z^n node to node; a jump >= pi/2 forces a split.
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = [mid]
        for x in _XGK[:-1]:
            off = half * x
            pts.append(mid - off)
            pts.append(mid + off)
        arg = arg_lo
        values = {}
        for t in sorted(pts):
            z = za + t * seg
            w = 1.0 - z ** n
            if abs(w) < 1e-14:
                raise SingularityError(
                    f"path passes over a root of unity near z={z:.6g}")
            phi = cmath.phase(w)
            k = round((arg - phi) / TWO_PI)
            theta = phi + TWO_PI * k
            if abs(theta - arg) >= 0.5 * math.pi * (1.0 - 1e-12):
                raise _Refine()
            arg = theta
            values[t] = abs(w) ** (-beta) * cmath.exp(-1j * beta * theta)
        state["evals"] += len(values)
        kron = _WGK[7] * values[mid]
        gauss = _WG[3] * values[mid]
        kabs = _WGK[7] * abs(values[mid])
        for i in range(7):
            off = half * _XGK[i]
            va, vb = values[mid - off], values[mid + off]
            kron += _WGK[i] * (va + vb)
            kabs += _WGK[i] * (abs(va) + abs(vb))
            if i % 2 == 1:
                gauss += _WG[i // 2] * (va + vb)
        scale = half * abs(seg)
        return (kron * half * seg, abs(kron - gauss) * scale,
                kabs * scale, arg)

    def rec(lo: float, hi: float, arg_lo: float, budget: float, depth: int):
        if depth > 48:
            raise QuadratureError(
                f"tracked leg refinement exceeded depth 48 near "
                f"{za + lo * seg:.6g}")
        try:
            val, err, kabs, arg_hi = panel(lo, hi, arg_lo)
        except _Refine:
            mid = 0.5 * (lo + hi)
            v1, a1 = rec(lo, mid, arg_lo, budget * 0.5, depth + 1)
            v2, a2 = rec(mid, hi, a1, budget * 0.5, depth + 1)
            return v1 + v2, a2
        if err <= budget or err <= 1e-15 * kabs:
            return val, arg_hi
        mid = 0.5 * (lo + hi)
        v1, a1 = rec(lo, mid, arg_lo, budget * 0.5, depth + 1)
        v2, a2 = rec(mid, hi, a1, budget * 0.5, depth + 1)
        return v1 + v2, a2

    value, arg_end = rec(0.0, 1.0, tracker.current_arg, tol, 0)
    tracker.current_arg = arg_end
    tracker.last_z = zb
    return value


def _integrate_radial_singular(n: int, za: complex, zb: complex,
                               tracker: BranchTracker, tol: float,
                               state: dict) -> complex:
    """Leg along a ray through the origin with a root of unity at one end.

    On such legs 1 - z^n keeps a constant argument (the tracker supplies it
    on the regular part), so the integral reduces to a real endpoint-singular
    quadrature times a phase.
    """
    beta = (n - 1) / n
    ra, rb = abs(za), abs(zb)
    root_at_a = nearest_root_distance(n, za) < 1e-9
    root_at_b = nearest_root_distance(n, zb) < 1e-9
    if not (root_at_a or root_at_b):
        raise ParameterError("singular leg handler called away from a root")
    if ra > 1e-12 and rb > 1e-12:
        cross = (za.conjugate() * zb).imag
        dot = (za.conjugate() * zb).real
        if abs(cross) > 1e-9 * ra * rb or dot <= 0.0:
            raise ParameterError(
                "a path leg touching a root of unity must run along the ray "
                "through that root; split the path there")
    unit = zb / rb if rb >= ra else za / ra

    lo, hi = min(ra, rb), max(ra, rb)
    singular_hi = (root_at_b and rb >= ra) or (root_at_a and ra > rb)

    # Tracked argument on the regular interior of the leg.
    probe = unit * (0.5 * (lo + hi))
    theta = tracker.copy().update(probe) if abs(probe) > 1e-12 else tracker.current_arg
    ph = cmath.exp(-1j * beta * theta)

    def f3(r, dl, dr):
        # The root on this ray sits at radius 1, so |1 - r^n| factors as
        # |1 - r| * (1 + r + ... + r^(n-1)); use the exact endpoint offset
        # for |1 - r| when it is the vanishing distance.
        d = dr if singular_hi else dl
        if d < 1e-7:
            poly = 0.0
            rk = 1.0
            for _ in range(n):
                poly += rk
                rk *= r
            mag = d * poly
        else:
            mag = abs(1.0 - r ** n)
        return mag ** (-beta)

    v, _, ne, _ = _tanh_sinh(f3, lo, hi, tol, _max_quad_level())
    state["evals"] += ne
    sign = 1.0 if rb >= ra else -1.0
    value = sign * unit * ph * v

    # Commit the tracker at the far node; the crossing rule applies when a
    # following leg continues through the root.
    if nearest_root_distance(n, zb) < 1e-9:
        tracker.last_z = zb  # argument stays frozen at the pre-root value
    else:
        tracker.last_z = za
        tracker.update(zb)
    return value


def integrate_path(n: int, path: PathSpec, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Branch-tracked integral of (1 - z**n)**(-(n-1)/n) along a path from 0.

    Legs are integrated with the adaptive Kronrod rule while threading a
    BranchTracker along the nodes; a leg that ends on (or passes through) a
    root of unity is handled by the radial endpoint-singular rule.  Interior
    nodes must keep clear of the guard band around the roots of unity.
    """
    nodes = list(path.nodes)
    if abs(nodes[0]) > 1e-12:
        raise ParameterError("integration paths must start at 0")
    # Split legs that pass through a root of unity.
    split_nodes = [nodes[0]]
    for a, b in zip(nodes, nodes[1:]):
        root = _root_on_segment(n, a, b)
        if root is not None:
            split_nodes.append(root)
        split_nodes.append(b)
    # Guard band applies to nodes that are not themselves roots.
    for z in split_nodes[1:-1]:
        d = nearest_root_distance(n, z)
        if 1e-12 < d < 1e-8:
            raise SingularityError(
                f"path node {z:.8g} lies inside the singularity guard band")

    tracker = BranchTracker(n)
    state = {"evals": 0}
    total = 0j
    leg_tol = tol / max(1, len(split_nodes) - 1)
    for a, b in zip(split_nodes, split_nodes[1:]):
        if abs(b - a) < 1e-15:
            continue
        a_is_root = nearest_root_distance(n, a) < 1e-9
        b_is_root = nearest_root_distance(n, b) < 1e-9
        if a_is_root or b_is_root:
            total += _integrate_radial_singular(n, a, b, tracker, leg_tol, state)
        else:
            total += _integrate_leg_tracked(n, a, b, tracker, leg_tol, state)
    return QuadratureResult(total, tol, state["evals"])


# ---------------------------------------------------------------------------
# Exact rational series and reversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalSeries:
    """Sparse power series with exact rational coefficients.

    degrees are strictly increasing positive integers and coefficients are
    nonzero Fractions; the pair (degrees[i], coeffs[i]) is one term.
    """

    degrees: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.degrees) != len(self.coeffs):
            raise InvalidSeriesError("degrees and coeffs must align")
        last = 0
        for d, c in zip(self.degrees, self.coeffs):
            if d < 1 or (last and d <= last) or (not last and d < 1):
                raise InvalidSeriesError("degrees must be strictly increasing and >= 1")
            if c == 0:
                raise InvalidSeriesError("zero coefficients are not stored")
            last = d

    def coefficient(self, degree: int) -> Fraction:
        for d, c in zip(self.degrees, self.coeffs):
            if d == degree:
                return c
            if d > degree:
                break
        return Fraction(0)

    def term_count(self) -> int:
        return len(self.degrees)

    def truncate(self, max_degree: int) -> "RationalSeries":
        keep = [(d, c) for d, c in zip(self.degrees, self.coeffs) if d <= max_degree]
        return RationalSeries(tuple(d for d, _ in keep), tuple(c for _, c in keep))

    def head(self, terms: int) -> "RationalSeries":
        return RationalSeries(self.degrees[:terms], self.coeffs[:terms])

    def evaluate(self, z: complex) -> complex:
        # Horner over the sparse degree gaps.
        total = 0j
        prev_degree = 0
        for d, c in zip(reversed(self.degrees), reversed(self.coeffs)):
            if prev_degree:
                total *= z ** (prev_degree - d)
            total += complex(c)
            prev_degree = d
        return total * z ** prev_degree if prev_degree else total

    def float_terms(self):
        return [(d, float(c)) for d, c in zip(self.degrees, self.coeffs)]


def revert_series(series: RationalSeries, terms: int) -> RationalSeries:
    """Compositional inverse of a series z + ... with exact arithmetic.

    The input must start with the term 1*z.  The result is truncated to the
    degree of its terms-th potential term, respecting the arithmetic
    progression of the input degrees (degrees congruent to 1 modulo the gap
    gcd stay closed under reversion).
    """
    if terms < 1:
        raise ParameterError("terms must be >= 1")
    if not series.degrees or series.degrees[0] != 1 or series.coeffs[0] != 1:
        raise InvalidSeriesError("reversion needs a series starting with 1*z")
    if series.term_count() == 1:
        return series

    step = 0
    for d in series.degrees[1:]:
        step = gcd(step, d - 1)
    max_degree = 1 + (terms - 1) * step

    # Dense coefficients of G where series(z) = z * G(z); support is on
    # multiples of step.
    g = [Fraction(0)] * max_degree
    g[0] = Fraction(1)
    for d, c in zip(series.degrees[1:], series.coeffs[1:]):
        if d - 1 < max_degree:
            g[d - 1] = c
    support = [i for i in range(step, max_degree, step) if g[i] != 0]

    out_degrees = []
    out_coeffs = []
    for k in range(1, max_degree + 1, step):
        # Lagrange inversion: a_k = (1/k) [z^(k-1)] G(z)**(-k).
        alpha = -k
        need = k - 1
        q = [Fraction(0)] * (need + 1)
        q[0] = Fraction(1)
        for j in range(step, need + 1, step):
            s = Fraction(0)
            for i in support:
                if i > j:
                    break
                if q[j - i] != 0:
                    s += ((alpha + 1) * i - j) * g[i] * q[j - i]
            q[j] = s / j
        a_k = q[need] / k
        if a_k != 0:
            out_degrees.append(k)
            out_coeffs.append(a_k)
    return RationalSeries(tuple(out_degrees), tuple(out_coeffs))


# ---------------------------------------------------------------------------
# Binomial series of the sector map
# ---------------------------------------------------------------------------

# |u**n| bounds of the two series regimes of F: the series at 0 holds for
# |u**n| <= SERIES_INNER, the series at infinity for |u**n| >= SERIES_OUTER.
SERIES_INNER = 0.5
SERIES_OUTER = 2.0

# A series is cut once its remainder bound is below this fraction of its
# leading term, i.e. half an ulp.
_SERIES_EPS = 2.0 ** -54


def gamma_pi_n(n: int) -> float:
    """Gamma-function closed form for the half period, no quadrature involved."""
    return 2.0 * math.gamma(1.0 / n) ** 2 / (n * math.gamma(2.0 / n))


def gamma_corner_radius(n: int) -> float:
    """|P| = |F(infinity)|, the length of each slit-edge image, in closed form."""
    return gamma_pi_n(n) / (4.0 * math.cos(math.pi / n))


def _binomial_table(n: int, d: int):
    """Coefficients and term counts of sum_k c_k x**k / (d + n*k), |x| <= 1/2.

    c_k = (beta)_k / k! with beta = (n-1)/n satisfies 0 < c_k <= 1, so the
    remainder after term K is at most |x|**(K+1) / ((d + n*(K+1)) (1 - |x|)).
    With 1 - |x| >= 1/2 that is below _SERIES_EPS / d once |x| <= radii[K];
    terms are added until radii covers |x| = 1/2.
    """
    beta = (n - 1) / n
    coeffs = []
    radii = []
    c = 1.0
    k = 0
    while not radii or radii[-1] < 0.5:
        coeffs.append(c / (d + n * k))
        c *= (beta + k) / (k + 1)
        k += 1
        radii.append((0.5 * _SERIES_EPS * (d + n * k) / d) ** (1.0 / k))
    return coeffs, radii


@functools.lru_cache(maxsize=None)
def _series_tables(n: int):
    """Per-n constants of the kernel: both binomial tables, P and e^(i pi beta)."""
    corner = gamma_corner_radius(n) * cmath.exp(1j * math.pi / n)
    phase = cmath.exp(1j * math.pi * (n - 1) / n)
    return _binomial_table(n, 1), _binomial_table(n, n - 2), corner, phase


def _binomial_sum(table, x: complex) -> complex:
    """sum_k c_k x**k / (d + n*k) by Horner, to half an ulp of its leading term."""
    coeffs, radii = table
    last = bisect.bisect_left(radii, abs(x))
    acc = 0j
    for a in coeffs[last::-1]:
        acc = acc * x + a
    return acc


def _series_tail(n: int, u: complex) -> complex | None:
    """Integral of t**(1-n) (1 - t**-n)**(-beta) from u to infinity, or None.

    Equals sum_k c_k u**(2-n-nk) / (n-2+nk) when |u**n| >= SERIES_OUTER and
    is None otherwise.  Only integer powers of u appear, so the value is the
    continuation from inside the sector onto both of its boundary rays.
    """
    if abs(u) <= 1.0:
        return None
    v = 1.0 / u
    lead = v ** (n - 2)
    y = lead * v * v
    if abs(y) > 1.0 / SERIES_OUTER:
        return None
    return lead * _binomial_sum(_series_tables(n)[1], y)


def _series_F(n: int, u: complex) -> complex | None:
    """F(u) from its binomial series, or None in the annulus between them.

    With x = u**n, beta = (n-1)/n and c_k = (beta)_k / k!:

    * |x| <= SERIES_INNER:  F(u) = u * sum_k c_k x**k / (n*k + 1);
    * |x| >= SERIES_OUTER:  F(u) = P - e^(i pi beta) * _series_tail(n, u),
      with P from the gamma closed form.  This holds on the open sector and
      on its boundary rays continued from inside, the lower slit edge
      included; the leading term is the pole asymptote of F.

    Each sum is cut by its proven remainder bound at half an ulp of its
    leading term, so the result carries only rounding error (about 1e-15
    relative).
    """
    if abs(u) <= 1.0:
        x = u ** n
        if abs(x) > SERIES_INNER:
            return None
        return u * _binomial_sum(_series_tables(n)[0], x)
    tail = _series_tail(n, u)
    if tail is None:
        return None
    _, _, corner, phase = _series_tables(n)
    return corner - phase * tail


# ---------------------------------------------------------------------------
# Newton inversion of the sector integral
# ---------------------------------------------------------------------------

def _sector_ray_integrand(n: int, z: complex):
    """Offset-aware integrand for the ray integral of the arcsine kernel."""
    beta = (n - 1) / n
    zn = z ** n
    # Anywhere near a root of unity the s = 1 end is singular or sharp;
    # only the double-exponential rule resolves that to full precision.
    sharp_end = abs(zn - 1.0) < 0.5

    if sharp_end:
        def f3(s, dl, dr):
            # 1 - (s z)^n = (1 - s^n) + s^n (1 - z^n) exactly, and
            # 1 - s^n = dr * (1 + s + ... + s^(n-1)) exactly.
            poly = 0.0
            sk = 1.0
            for _ in range(n):
                poly += sk
                sk *= s
            w = dr * poly + (s ** n) * (1.0 - zn)
            return z * cmath.exp(-beta * cmath.log(w))
        return f3, True

    def f3(s, dl, dr):
        w = 1.0 - (s ** n) * zn
        return z * cmath.exp(-beta * cmath.log(w))
    return f3, False


def sector_ray_integral(n: int, z: complex, tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Integral of the arcsine kernel along the ray [0, z], principal branch.

    Valid for z in the closed base sector, excluding the boundary rays past
    their roots of unity (those need the explicit crossing phase).  The ray
    endpoint may itself be a root of unity.  Outside the annulus
    SERIES_INNER < |z**n| < SERIES_OUTER the binomial series gives the value
    to rounding error and ``tol`` is not used; inside it, quadrature does.
    """
    if z == 0:
        return 0j
    series = _series_F(n, z)
    if series is not None:
        return series
    f3, singular = _sector_ray_integrand(n, z)
    if singular:
        value, _, _, _ = _tanh_sinh(f3, 0.0, 1.0, tol, _max_quad_level())
        return value
    res = integrate_smooth(lambda s: f3(s, s, 1.0 - s), 0.0, 1.0, tol)
    return res.value


def sector_segment_integral(n: int, za: complex, zb: complex,
                            tol: float = DEFAULT_QUAD_TOL,
                            max_evals: int = 8_000) -> complex:
    """Principal-branch integral of the arcsine kernel along [za, zb].

    Both endpoints (and hence the whole segment) must lie in the closed base
    sector away from the slit part of its boundary, where the principal
    branch is the continuous one.  The evaluation budget is deliberately
    small; segments hugging a root of unity should use the ray integral.
    """
    beta = (n - 1) / n
    seg = zb - za

    def f(s):
        z = za + s * seg
        w = 1.0 - z ** n
        return cmath.exp(-beta * cmath.log(w))

    res = integrate_smooth(f, 0.0, 1.0, tol, max_evals=max_evals)
    return res.value * seg


@dataclass(frozen=True)
class NewtonResult:
    z: complex
    residual: float
    iterations: int


def _in_sector(n: int, z: complex, slack: float = 1e-9) -> bool:
    """Acceptance region for Newton iterates.

    The closed base sector, except that beyond the unit circle the boundary
    rays are slits (the principal branch flips sides across them), so
    iterates there must keep an angular margin from both rays.  Real targets
    with real solutions stay below radius 1 and are unaffected.
    """
    if abs(z) < 1e-300:
        return True
    phi = cmath.phase(z)
    if not (-slack <= phi <= TWO_PI / n + slack):
        return False
    if abs(z) <= 0.999999:
        return True
    margin = 1e-7
    return margin <= phi <= TWO_PI / n - margin


def _newton_basic(n: int, w: complex, z0: complex, tol: float,
                  max_iter: int) -> NewtonResult:
    beta = (n - 1) / n
    qtol = min(1e-13, tol * 0.05)

    def advance(z_old: complex, Fz_old: complex, z_new: complex) -> complex:
        series = _series_F(n, z_new)
        if series is not None:
            return series
        # Incremental segment update is cheap, but next to a root of unity
        # the segment quadrature degrades; the ray integral has a dedicated
        # singular mode and stays robust there.
        if (nearest_root_distance(n, z_new) < 1e-2
                or nearest_root_distance(n, z_old) < 1e-2):
            return sector_ray_integral(n, z_new, qtol)
        try:
            return Fz_old + sector_segment_integral(n, z_old, z_new, qtol)
        except QuadratureError:
            return sector_ray_integral(n, z_new, qtol)

    z = z0
    Fz = sector_ray_integral(n, z, qtol)
    resid = abs(Fz - w)
    since_refresh = 0
    for it in range(1, max_iter + 1):
        if resid <= tol:
            return NewtonResult(z, resid, it - 1)
        try:
            slope_inv = principal_power(n, z, beta)
        except SingularityError:
            slope_inv = principal_power(n, z * (1.0 - 1e-9) + 1e-12j, beta)
        step = (Fz - w) * slope_inv
        lam = 1.0
        accepted = False
        while lam >= 1.0 / 64.0:
            z_new = z - lam * step
            if not _in_sector(n, z_new) or (
                    nearest_root_distance(n, z_new) < 1e-10):
                lam *= 0.5
                continue
            F_new = advance(z, Fz, z_new)
            r_new = abs(F_new - w)
            if r_new < resid:
                z, Fz, resid = z_new, F_new, r_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        since_refresh += 1
        if since_refresh >= 8:
            Fz = sector_ray_integral(n, z, qtol)
            resid = abs(Fz - w)
            since_refresh = 0
    # Final full re-evaluation guards against incremental drift.
    Fz = sector_ray_integral(n, z, qtol)
    resid = abs(Fz - w)
    return NewtonResult(z, resid, max_iter)


def newton_invert(n: int, w: complex, z0: complex,
                  tol: float = 1e-12, max_iter: int = 50) -> NewtonResult:
    """Solve F(z) = w for the sector integral F, starting from z0.

    Damped Newton steps use the closed-form reciprocal slope
    (1 - z**n)**((n-1)/n); on stagnation the solver re-seeds itself by
    marching w from F(z0) toward the target.  Raises ConvergenceError with
    the last residual when both strategies fail.
    """
    res = _newton_basic(n, w, z0, tol, max_iter)
    if res.residual <= tol:
        return res

    # Path continuation: walk the target from F(z0) to w.
    qtol = min(1e-13, tol * 0.05)
    z = z0
    base = sector_ray_integral(n, z, qtol)
    stages = 10
    last = res
    for j in range(1, stages + 1):
        wj = base + (w - base) * (j / stages)
        stage_tol = tol if j == stages else max(tol, 1e-10)
        last = _newton_basic(n, wj, z, stage_tol, max_iter)
        if last.residual > stage_tol and j < stages:
            continue
        z = last.z
    if last.residual <= tol:
        return last
    raise ConvergenceError(
        f"newton_invert stalled at residual {last.residual:.3g} "
        f"(target {tol:g})", residual=last.residual)


# ---------------------------------------------------------------------------
# Winding numbers of discrete loops
# ---------------------------------------------------------------------------

def winding_number(loop_values, w: complex) -> int:
    """Winding count of a sampled closed loop around w.

    The samples must repeat the first point at the end and be dense enough
    that consecutive argument increments stay below pi; otherwise a
    RefinementNeededError asks the caller for more samples.
    """
    values = [complex(v) for v in loop_values]
    if len(values) < 4:
        raise DegenerateLoopError("a loop needs at least 4 samples")
    if abs(values[0] - values[-1]) > 1e-9 * max(1.0, abs(values[0])):
        raise DegenerateLoopError("loop is not closed (first != last sample)")
    scale = max(abs(v) for v in values)
    total = 0.0
    for va, vb in zip(values, values[1:]):
        da, db = va - w, vb - w
        if abs(da) < 1e-12 * max(1.0, scale) or abs(db) < 1e-12 * max(1.0, scale):
            raise DegenerateLoopError(
                f"loop passes through the target point {w:.6g}")
        inc = cmath.phase(db / da)
        if abs(inc) >= math.pi * 0.999:
            raise RefinementNeededError(
                "consecutive loop samples subtend an angle of almost pi at "
                "the target; the count is ambiguous, refine the sampling")
        total += inc
    count = total / TWO_PI
    nearest = round(count)
    if abs(count - nearest) > 1e-6:
        raise RefinementNeededError(
            f"winding sum {count:.3g} is not close to an integer; refine")
    return int(nearest)
