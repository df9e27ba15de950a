"""Toast-switch analysis: quantifying the (in)visibility of transitions.

The draw-and-destroy toast attack works because the combined opacity of a
departing toast and its successor barely dips during the switch. This
module measures that dip for each consecutive pair in a display history —
the quantity the perception model thresholds and the quantity the
toast-spacing defense inflates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .toast import Toast


@dataclass(frozen=True)
class ToastSwitch:
    """One transition between consecutive toasts."""

    prev_toast_id: int
    next_toast_id: int
    #: Time from the old toast starting its fade-out to the new toast
    #: appearing on screen (>= Tas; larger if a defense inserts a gap).
    switch_gap_ms: float
    #: Minimum combined opacity observed during the transition.
    min_coverage: float
    #: Total time combined opacity sat below ``threshold``.
    time_below_threshold_ms: float
    threshold: float


_NEVER = float("inf")


def _timeline(toast: Toast):
    """``(shown_at, removed_at, fade_out_start, fade_ms)``, ``None`` as +inf.

    No finite sample time reaches +inf, so every ``alpha_at`` branch on a
    missing time takes the same side it takes on ``None``.
    """
    return (
        _NEVER if toast.shown_at is None else toast.shown_at,
        _NEVER if toast.removed_at is None else toast.removed_at,
        _NEVER if toast.fade_out_start is None else toast.fade_out_start,
        toast.fade_ms,
    )


def analyze_switch(
    prev: Toast,
    nxt: Toast,
    threshold: float = 0.85,
    sample_step_ms: float = 1.0,
) -> Optional[ToastSwitch]:
    """Measure the coverage dip between ``prev`` and ``nxt``.

    Samples the switch every ``sample_step_ms`` from ``prev``'s fade-out
    start until ``nxt`` has faded in. The toasts overlap on screen, so
    their opacities composite: the background shows through only where
    *both* layers are transparent. Each opacity is
    :meth:`Toast.alpha_at`, evaluated inline with the same expressions in
    the same order (the default fade curves, ``1 - (1 - x)^2`` in and
    ``x^2`` out), so every sample is bitwise what ``alpha_at`` returns.

    Returns None if either toast never reached the screen.
    """
    if prev.fade_out_start is None or nxt.shown_at is None:
        return None
    start = prev.fade_out_start
    # The transition is over once the new toast has finished fading in.
    end = nxt.shown_at + nxt.fade_ms
    p_shown, p_removed, p_out, p_fade = _timeline(prev)
    n_shown, n_removed, n_out, n_fade = _timeline(nxt)
    min_cov = 1.0
    below_ms = 0.0
    t = start
    while t <= end:
        if t < p_shown or t >= p_removed:
            a = 0.0
        else:
            elapsed = t - p_shown
            if elapsed < p_fade:
                x = elapsed / p_fade
                a = 1.0 - (1.0 - x) * (1.0 - x)
            else:
                a = 1.0
            if t >= p_out:
                elapsed = t - p_out
                if elapsed >= p_fade:
                    a = 0.0
                else:
                    x = elapsed / p_fade
                    fading = 1.0 - x * x
                    if fading < a:
                        a = fading
        if t < n_shown or t >= n_removed:
            b = 0.0
        else:
            elapsed = t - n_shown
            if elapsed < n_fade:
                x = elapsed / n_fade
                b = 1.0 - (1.0 - x) * (1.0 - x)
            else:
                b = 1.0
            if t >= n_out:
                elapsed = t - n_out
                if elapsed >= n_fade:
                    b = 0.0
                else:
                    x = elapsed / n_fade
                    fading = 1.0 - x * x
                    if fading < b:
                        b = fading
        cov = 1.0 - (1.0 - a) * (1.0 - b)
        if cov < min_cov:
            min_cov = cov
        if cov < threshold:
            below_ms += sample_step_ms
        t += sample_step_ms
    return ToastSwitch(
        prev_toast_id=prev.toast_id,
        next_toast_id=nxt.toast_id,
        switch_gap_ms=nxt.shown_at - prev.fade_out_start,
        min_coverage=min_cov,
        time_below_threshold_ms=below_ms,
        threshold=threshold,
    )


def analyze_switches(
    history: Sequence[Toast],
    threshold: float = 0.85,
    sample_step_ms: float = 1.0,
) -> List[ToastSwitch]:
    """Analyze every consecutive transition in a display history."""
    switches: List[ToastSwitch] = []
    shown = [t for t in history if t.shown_at is not None]
    for prev, nxt in zip(shown, shown[1:]):
        switch = analyze_switch(prev, nxt, threshold, sample_step_ms)
        if switch is not None:
            switches.append(switch)
    return switches


def worst_switch(switches: Sequence[ToastSwitch]) -> Optional[ToastSwitch]:
    """The most visible (lowest-coverage) transition, if any."""
    return min(switches, key=lambda s: s.min_coverage, default=None)
