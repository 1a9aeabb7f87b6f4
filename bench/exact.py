"""Exact reference for the bundled example46 ODE cost.

example46 is x1' = |x1| + |x2| + x3, x2' = |x2|, x3' = x3 with
x(0) = (p1, p2, p1) and cost x1(1).  Then x2 = p2 e^(s t) with s = sign(p2)
(taking s = 1 at p2 = 0) and x3 = p1 e^t, so on every interval where x1 keeps
one sign sigma, x1' = sigma x1 + g(t) with g(t) = |p2| e^(s t) + p1 e^t is a
linear ODE with a closed-form solution.  The cost is that solution, carried
across each sign change of x1 (found by bisection).  No numerical
integration is involved, so it checks the package's integrator independently.
"""

from __future__ import annotations

import math

_GRID = 400          # sign-change search resolution on [t0, 1]
_MAX_REGIMES = 8


def example46_cost(p1: float, p2: float) -> float:
    a = abs(p2)
    s = 1.0 if p2 >= 0.0 else -1.0

    def g(t):
        return a * math.exp(s * t) + p1 * math.exp(t)

    def solution(t0, x0, sigma):
        # x(t) = e^(sigma t) [e^(-sigma t0) x0 + int_t0^t e^(-sigma tau) g(tau) dtau]
        def integral(k, t):
            return t - t0 if k == 0.0 else (math.exp(k * t) - math.exp(k * t0)) / k

        return lambda t: math.exp(sigma * t) * (
            math.exp(-sigma * t0) * x0 + a * integral(s - sigma, t) + p1 * integral(1.0 - sigma, t))

    t0, x0 = 0.0, p1
    for _ in range(_MAX_REGIMES):
        if x0 != 0.0:
            sigma = math.copysign(1.0, x0)
        else:  # on x1 = 0 the sign of g decides where x1 goes
            g0 = g(t0) or g(t0 + 1e-9)
            if g0 == 0.0:
                return 0.0
            sigma = math.copysign(1.0, g0)
        x = solution(t0, x0, sigma)
        crossing = None
        prev = t0
        for k in range(1, _GRID + 1):
            t = t0 + (1.0 - t0) * k / _GRID
            if sigma * x(t) < 0.0:
                lo, hi = prev, t
                while True:
                    mid = 0.5 * (lo + hi)
                    if mid <= lo or mid >= hi:
                        break
                    if sigma * x(mid) < 0.0:
                        hi = mid
                    else:
                        lo = mid
                crossing = lo if lo > t0 else hi
                break
            prev = t
        if crossing is None:
            return x(1.0)
        t0, x0 = crossing, 0.0
    raise ValueError(f"more than {_MAX_REGIMES} sign changes of x1 at p = ({p1}, {p2})")


def compass_of(f, p, h: float = 1e-7) -> list:
    """Compass difference of an exactly computable f at p.

    Each one-sided derivative f'(p; +-e_i) comes from the second-order
    one-sided difference (-3 f(p) + 4 f(p + h d) - f(p + 2 h d)) / (2 h), so
    it never straddles a kink through p.
    """
    f0 = f(*p)
    out = []
    for i in range(2):
        def along(t):
            q = [p[0], p[1]]
            q[i] += t
            return f(*q)

        plus = (-3.0 * f0 + 4.0 * along(h) - along(2.0 * h)) / (2.0 * h)
        minus = (-3.0 * f0 + 4.0 * along(-h) - along(-2.0 * h)) / (2.0 * h)
        out.append(0.5 * (plus - minus))
    return out
