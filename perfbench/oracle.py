"""Output checks computed apart from the program.

Every expected value here is derived from the paper's closed forms or
from a property the method must have, never from a stored copy of the
program's output: the cubic Bezier is solved here by plain bisection,
and Eq. 3 is evaluated from the device's latency means and that solver.
"""

from __future__ import annotations

import math
from typing import Iterable, List

#: Android's standard notification slide-in duration (paper §III-B).
SLIDE_IN_MS = 360.0
#: Control points of cubic-bezier(0.4, 0, 0.2, 1) (FastOutSlowIn).
_X1, _Y1, _X2, _Y2 = 0.4, 0.0, 0.2, 1.0
#: Step of the Table II boundary bisection (``UpperBoundFinder``).
BISECTION_STEP_MS = 5.0


class CheckFailed(AssertionError):
    """An output check did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _bezier(t: float, p1: float, p2: float) -> float:
    u = 1.0 - t
    return 3.0 * u * u * t * p1 + 3.0 * u * t * t * p2 + t * t * t


def bezier_b(x: float) -> float:
    """B(x) of cubic-bezier(0.4, 0, 0.2, 1), solved by bisection on t."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _bezier(mid, _X1, _X2) < x:
            lo = mid
        else:
            hi = mid
    return _bezier((lo + hi) / 2.0, _Y1, _Y2)


def first_visible_ms(height_px: int, refresh_ms: float) -> float:
    """Ta: the first refresh-interval frame with round(h * B) >= 1."""
    frame = 1
    while True:
        t = frame * refresh_ms
        # Half-up rounding, as a display rasterizer rounds pixel rows.
        if int(height_px * bezier_b(min(t, SLIDE_IN_MS) / SLIDE_IN_MS)
               + 0.5) >= 1:
            return t
        frame += 1


def eq3_bound_ms(profile) -> float:
    """Paper Eq. 3: D <= Tn + Tv + Ta, from the profile's latency means."""
    return (profile.tn.mean_ms + profile.tv.mean_ms
            + first_visible_ms(profile.notification_view_height_px,
                               profile.refresh_interval_ms))


def check_outcome_rule(profile, d_ms: float, suppressed_all: bool,
                       suppressed_none: bool) -> bool:
    """Fault-free outcome rule; returns False when the cell is too close
    to the bound to be decided (within one refresh interval)."""
    bound = eq3_bound_ms(profile)
    if abs(d_ms - bound) <= profile.refresh_interval_ms:
        return False
    if d_ms < bound:
        require(suppressed_all,
                f"{profile.key}: D={d_ms:g} ms is below the Eq. 3 bound "
                f"{bound:.1f} ms but some trial showed the alert")
    else:
        require(suppressed_none,
                f"{profile.key}: D={d_ms:g} ms is above the Eq. 3 bound "
                f"{bound:.1f} ms but some trial suppressed the alert")
    return True


def check_curve(points: Iterable, duration_ms: float, fn, label: str) -> None:
    """Every (t, percent) point equals 100 * fn(t / duration)."""
    count = 0
    for t, percent in points:
        expected = 100.0 * fn(min(max(t / duration_ms, 0.0), 1.0))
        require(abs(percent - expected) <= 1e-6,
                f"{label}: {percent!r}% at t={t:g} ms, expected "
                f"{expected!r}%")
        count += 1
    require(count >= 2, f"{label}: curve has {count} points")


def p95(values: List[float]) -> float:
    """The 95th percentile; the run must hold at least ten samples beyond
    it, so it is a tail and not the largest few values."""
    ordered = sorted(values)
    rank = math.ceil(0.95 * len(ordered))
    require(len(ordered) - rank >= 10,
            f"p95 of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[rank - 1]
