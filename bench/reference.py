"""Independent yardstick: the reduced rate and its optimum in plain ``math``.

Nothing here imports omnidris.  The benchmark judges the program's answers
against these functions, so a change to the program cannot move its own
reference.
"""
from __future__ import annotations

import math

LN2 = math.log(2.0)

#: Buildable panels: N = 2^k with 1 <= N <= 512.
HARDWARE_PANELS = tuple(2**k for k in range(10))


def rate(alpha: float, psi: float, xi: float, n: float, theta: float) -> float:
    """Aggregate rate xi (n - theta) log2(1 + alpha / (psi n^2)); 0 without active elements."""
    active = n - theta
    if active <= 0.0:
        return 0.0
    return xi * active * math.log1p(alpha / (psi * n * n)) / LN2


def theta_at(n: float, theta: float | None, absorbing_fraction: float | None) -> float:
    """Absorbing count at ``n``: a fixed count, or ``q n`` for a proportional share."""
    return theta if absorbing_fraction is None else absorbing_fraction * n


def stationarity_constant() -> float:
    """Root t* of ln(1 + t) = 2t / (1 + t) by Newton's method from t = 4."""
    t = 4.0
    for _ in range(100):
        g = math.log1p(t) - 2.0 * t / (1.0 + t)
        step = g / ((t - 1.0) / (1.0 + t) ** 2)
        t -= step
        if abs(step) <= 1e-16 * t:
            break
    return t


T_STAR = stationarity_constant()


def best_panel(alpha, psi, xi, theta=None, absorbing_fraction=None) -> tuple[int, float]:
    """The hardware panel with the highest rate (ties go to the smaller panel)."""
    best_n, best_rate = 1, -1.0
    for n in HARDWARE_PANELS:
        value = rate(alpha, psi, xi, float(n), theta_at(n, theta, absorbing_fraction))
        if value > best_rate:
            best_n, best_rate = n, value
    return best_n, best_rate


def rel_close(value: float, target: float, tol: float = 1e-12) -> bool:
    return abs(value - target) <= tol * max(abs(target), 1e-300)
