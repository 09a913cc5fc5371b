"""Independent high-precision oracle for sin_n, cos_n and arcsin_n.

The inverse sine has the closed form (Euler integral, DLMF 15.6.1)

    F_n(u) = u * 2F1((n-1)/n, 1/n; 1 + 1/n; u**n),

analytic on the slit plane with the principal branch of 2F1, and
F_n'(u) = (1 - u**n)**(-(n-1)/n).  mpmath evaluates both at 30 digits.

* ``arcsin_n(w)`` is compared with ``F_n(w)``.
* ``sin_n(z)`` is compared with the root of ``F_n(u) = z`` that damped Newton
  reaches from the returned value (forward error, not backward error: near
  the corner ``A`` the map is steep and a correct value can have a large
  image-space residual).
* ``cos_n(z)`` is compared with ``(1 - u**n)**(1/n)`` (principal branch,
  which is the continuous branch on the slit plane) at that root, seeded
  from the returned cosine; ``|u**n + c**n - 1|`` is checked as well.

Near a corner ``omega**k A`` the root sits within ``|A - z|**n / n`` of a
root of unity, far below 30 digits for large n.  There the oracle solves in
the chart variable ``tau = (1 - v**n)**(1/n)``, ``v = u omega**-k``, using the
connection formula DLMF 15.8.4 (with ``c - a - b = 1/n``):

    F(v) = v * (A * 2F1(beta, 1/n; 1 - 1/n; t) - tau * 2F1(2/n, 1; 1 + 1/n; t)),

``t = tau**n``, ``A = Gamma(1/n)**2 / (n Gamma(2/n))`` and ``dF/dtau = -v**(1-n)``,
and forms ``1 - v`` through ``expm1``/``log1p`` so it keeps full precision.

Values pass when the error is at most ``IDENTITY_TOL * max(1, |value|)``,
``IDENTITY_TOL`` being the ``identity`` class of the library's
``DEFAULT_TOLERANCES``.  The Pythagorean residual is scaled by
``max(1, |c|**n)`` because it compares n-th powers.
"""

from __future__ import annotations

import cmath
import math
import pickle
import sys
from fractions import Fraction

import mpmath as mp

IDENTITY_TOL = 1e-10
_DPS = 30
_MAX_STEPS = 40
# Use the corner chart when |A - z omega**-k|**n is below this.
_CHART_T = 0.25


class Oracle:
    """Reference values for one n; holds its own mpmath constants."""

    def __init__(self, n: int):
        self.n = n
        with mp.workdps(_DPS):
            self.beta = mp.mpf(n - 1) / n
            self.b = mp.mpf(1) / n
            self.c = 1 + self.b
            self.A = mp.gamma(self.b) ** 2 / (n * mp.gamma(2 * self.b))

    # -- closed form -------------------------------------------------------

    def F(self, u):
        x = u ** self.n
        t = 1 - x
        if abs(t) < 0.5 < abs(x):
            # DLMF 15.8.4 around x = 1: two fast series instead of mpmath's
            # general transformation with fresh gamma factors
            return u * self._near_one(t, t ** self.b)
        return u * mp.hyp2f1(self.beta, self.b, self.c, x)

    def _near_one(self, t, tau):
        """2F1(beta, 1/n; 1 + 1/n; 1 - t) with tau = t**(1/n)."""
        return (self.A * mp.hyp2f1(self.beta, self.b, 1 - self.b, t)
                - tau * mp.hyp2f1(2 * self.b, 1, self.c, t))

    def _on_slit(self, u) -> bool:
        un = u ** self.n
        return mp.im(un) == 0 and mp.re(un) >= 1

    def _root(self, z, seed):
        """Root of F(u) = z by damped Newton from ``seed``; None if it stalls."""
        n = self.n
        u = mp.mpc(seed)
        if self._on_slit(u) or u ** n == 1:
            # a value on a slit or a branch point: step off it on the side
            # whose image is closer to the target
            tries = [u * mp.expjpi(s * mp.mpf(10) ** -20) for s in (1, -1)]
            tries = [t * (1 - mp.mpf(10) ** -25) for t in tries]
            u = min(tries, key=lambda t: abs(self.F(t) - z))
        r = self.F(u) - z
        for _ in range(_MAX_STEPS):
            un = u ** n
            step = r * (1 - un) ** self.beta
            size = abs(step)
            # Newton-Kantorovich: once the step is tiny next to the distance
            # to the nearest branch point, u - step is the root to within
            # 1e-6 of the step itself
            curvature = abs(self.beta * n * un / (u * (1 - un)))
            if size * curvature <= 1e-6:
                return u - step
            lam = mp.mpf(1)
            while lam > mp.mpf(2) ** -30:
                cand = u - lam * step
                if not self._on_slit(cand):
                    rc = self.F(cand) - z
                    if abs(rc) < abs(r):
                        u, r = cand, rc
                        break
                lam /= 2
            else:
                return None
        return None

    # -- checks ------------------------------------------------------------

    def check(self, fn: str, z: complex, value: complex) -> tuple[bool, float]:
        """(passed, error measure) for one returned value."""
        with mp.workdps(_DPS):
            if fn == "arcsin":
                ref = self.F(mp.mpc(z))
                return _judge(abs(value - ref), value)
            chart = self._chart(z, fn, value)
            if chart is not None:
                rot, tau, one_minus_v = chart
                if fn == "sin":
                    # u = rot * (1 - (1 - v)), differenced without cancellation
                    return _judge(abs((value - rot) + rot * one_minus_v), value)
                c = mp.mpc(value)
                pythag = abs((1 - tau ** self.n) + c ** self.n - 1)
                pythag /= max(1.0, float(abs(c)) ** self.n)
                err = float(max(abs(value - tau) / max(1.0, abs(value)), pythag))
                return err <= IDENTITY_TOL, err
            if fn == "sin":
                u = self._root(mp.mpc(z), value)
                if u is None:
                    return False, math.inf
                return _judge(abs(value - u), value)
            return self._check_cos(z, value)

    def _chart(self, z: complex, fn: str, value: complex):
        """(omega**k, tau, 1 - v) at the root near corner k, or None if far.

        Newton starts from the tau of the returned value (a sine exactly at
        the corner gives tau = 0, so it starts from the leading term A - z).
        """
        n = self.n
        k = round(cmath.phase(z) * n / (2 * math.pi)) % n
        rot = mp.expjpi(mp.mpf(2 * k) / n)
        zk = mp.mpc(z) / rot
        if abs(self.A - zk) ** n > _CHART_T:
            return None
        tau = mp.mpc(value) if fn == "cos" else (1 - (mp.mpc(value) / rot) ** n) ** self.b
        if tau == 0:
            tau = self.A - zk
        for _ in range(_MAX_STEPS):
            t = tau ** n
            v = (1 - t) ** self.b
            g = v * self._near_one(t, tau) - zk
            step = g / -(v ** (1 - n))
            tau -= step
            # quadratic convergence: after a 1e-12 step tau is good to ~1e-24
            if abs(step) <= 1e-12:
                t = tau ** n
                return rot, tau, -mp.expm1(mp.log1p(-t) / n)
        return None

    def _check_cos(self, z: complex, value: complex) -> tuple[bool, float]:
        n = self.n
        c = mp.mpc(value)
        s0 = (1 - c ** n) ** self.b
        # F maps each sector onto the kite in the same wedge, so the root
        # lies in the wedge of z; the other roots of unity are fallbacks
        wedge = 2 * math.pi / n
        base = math.floor((cmath.phase(z) % (2 * math.pi)) / wedge)
        own = math.floor((float(mp.arg(s0)) % (2 * math.pi)) / wedge)
        for k in (base - own, base - own + 1, base - own - 1):
            seed = s0 * mp.expjpi(mp.mpf(2 * k) / n)
            u = self._root(mp.mpc(z), seed)
            if u is not None:
                break
        else:
            return False, math.inf
        ref = (1 - u ** n) ** self.b
        forward = abs(value - ref) / max(1.0, abs(value))
        pythag = abs(u ** n + c ** n - 1) / max(1.0, float(abs(c)) ** n)
        err = float(max(forward, pythag))
        return err <= IDENTITY_TOL, err


def _judge(err, value: complex) -> tuple[bool, float]:
    rel = float(err) / max(1.0, abs(value))
    return rel <= IDENTITY_TOL, rel


def pi_n(n: int) -> float:
    """Closed form of the period: 2 Gamma(1/n)^2 / (n Gamma(2/n))."""
    with mp.workdps(_DPS):
        return float(2 * mp.gamma(mp.mpf(1) / n) ** 2 / (n * mp.gamma(mp.mpf(2) / n)))


def maclaurin_ode(n: int, terms: int) -> list:
    """Exact Maclaurin coefficients of sin_n from the ODE pair.

    With s = z S(x), c = C(x) and x = z**n, the system s' = c**(n-1),
    c' = -s**(n-1) becomes (1 + n k) S_k = [C**(n-1)]_k and
    n (k + 1) C_(k+1) = -[S**(n-1)]_k.  The powers come from J.C.P. Miller's
    recurrence, so this shares no code path with series reversion.  Returns
    the first ``terms`` coefficients S_0, S_1, ... (degree n k + 1).
    """
    alpha = Fraction(n - 1)
    S, C = [Fraction(1)], [Fraction(1)]
    Sp, Cp = [Fraction(1)], [Fraction(1)]   # S**(n-1) and C**(n-1)

    def extend(power, base, m):
        # Miller: m P_m = sum_{j=1..m} ((alpha + 1) j - m) Q_j P_(m-j)
        acc = sum(((alpha + 1) * j - m) * base[j] * power[m - j] for j in range(1, m + 1))
        power.append(acc / m)

    for k in range(terms - 1):
        C.append(-Sp[k] / (n * (k + 1)))
        extend(Cp, C, k + 1)
        S.append(Cp[k + 1] / (1 + n * (k + 1)))
        extend(Sp, S, k + 1)
    return S[:terms]


def judge(items) -> list:
    """'ok' or 'wrong' for each (fn, n, z, value) of ``items``."""
    oracles = {}
    out = []
    for fn, n, z, value in items:
        if n not in oracles:
            oracles[n] = Oracle(n)
        out.append("ok" if oracles[n].check(fn, z, value)[0] else "wrong")
    return out


if __name__ == "__main__":
    # worker of bench/run.py: oracle.py IN OUT, both pickle files
    with open(sys.argv[1], "rb") as f:
        items = pickle.load(f)
    with open(sys.argv[2], "wb") as f:
        pickle.dump(judge(items), f)
