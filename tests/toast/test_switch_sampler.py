"""The one-pass switch sampler equals a loop over ``Toast.alpha_at``.

``analyze_switch`` evaluates both toasts' opacities inline. The reference
below is the plain definition: walk the same grid and composite the two
``alpha_at`` values. The two ``ToastSwitch``es must be equal, so every
float (minimum coverage, time below threshold) is bitwise the same.
"""

from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.toast import TOAST_LENGTH_LONG_MS, TOAST_LENGTH_SHORT_MS, Toast
from repro.toast.lifecycle import ToastSwitch, analyze_switch
from repro.windows.geometry import Rect

RECT = Rect(0, 1400, 1080, 2160)


def reference_switch(prev: Toast, nxt: Toast, threshold: float,
                     sample_step_ms: float) -> Optional[ToastSwitch]:
    if prev.fade_out_start is None or nxt.shown_at is None:
        return None
    min_cov = 1.0
    below_ms = 0.0
    t = prev.fade_out_start
    while t <= nxt.shown_at + nxt.fade_ms:
        cov = 1.0 - (1.0 - prev.alpha_at(t)) * (1.0 - nxt.alpha_at(t))
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


def make_toast(shown_at, fade_out_start=None, removed_at=None,
               fade_ms=500.0, duration=TOAST_LENGTH_SHORT_MS):
    toast = Toast(owner="a", content="x", rect=RECT, duration_ms=duration)
    toast.shown_at = shown_at
    toast.fade_out_start = fade_out_start
    toast.removed_at = removed_at
    toast.fade_ms = fade_ms
    return toast


@st.composite
def switches(draw):
    """A consecutive pair, as the queue or a defense would leave it."""
    fade = draw(st.sampled_from([500.0, 250.0, 37.5, 1.0]))
    duration = draw(st.sampled_from([TOAST_LENGTH_SHORT_MS,
                                     TOAST_LENGTH_LONG_MS]))
    shown = draw(st.floats(min_value=0.0, max_value=5_000.0))
    # Usually the full duration; sometimes cancelled early, even before
    # the fade-in finished.
    fade_out = shown + draw(st.one_of(
        st.just(duration), st.floats(min_value=0.0, max_value=duration)))
    # Removed when the fade-out ends, or inside it.
    prev_removed = fade_out + fade * draw(st.one_of(
        st.just(1.0), st.floats(min_value=0.0, max_value=1.0)))
    prev = make_toast(shown, fade_out, prev_removed, fade, duration)
    # The successor appears before or after the previous fade ends, or
    # after a spacing-defense gap; it may be removed again inside its own
    # fade-in, or still be on screen.
    gap = draw(st.one_of(
        st.floats(min_value=0.0, max_value=2 * fade),
        st.floats(min_value=2 * fade, max_value=1_500.0)))
    nxt_shown = fade_out + gap
    nxt_out = draw(st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=fade).map(
            lambda d: nxt_shown + d)))
    nxt_removed = None if nxt_out is None else nxt_out + fade * draw(
        st.floats(min_value=0.0, max_value=1.0))
    nxt = make_toast(nxt_shown, nxt_out, nxt_removed, fade, duration)
    return prev, nxt


thresholds = st.one_of(st.sampled_from([0.85, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=1.2))
steps = st.one_of(st.sampled_from([1.0, 0.3, 0.7, 2.5]),
                  st.floats(min_value=0.25, max_value=10.0))


class TestSamplerEqualsAlphaAt:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pair=switches(), threshold=thresholds, step=steps)
    def test_switch_equals_reference(self, pair, threshold, step):
        prev, nxt = pair
        assert (analyze_switch(prev, nxt, threshold, step)
                == reference_switch(prev, nxt, threshold, step))

    def test_never_shown_successor_has_no_switch(self):
        prev = make_toast(0.0, 2_000.0, 2_500.0)
        assert analyze_switch(prev, make_toast(None)) is None
        assert analyze_switch(make_toast(0.0), prev) is None

    def test_prev_never_shown_but_fading(self):
        # alpha_at is 0 throughout for a toast with no shown_at.
        prev = make_toast(None, 100.0, 600.0)
        nxt = make_toast(150.0)
        assert (analyze_switch(prev, nxt, 0.85, 1.0)
                == reference_switch(prev, nxt, 0.85, 1.0))
