"""Hypothesis property suites for interpolator algebra and frame tables.

Three families of properties:

* **curve algebra** — ``curve()`` endpoints are exact (including the
  degenerate ``samples=2`` minimum), ``value`` is monotone non-decreasing
  for the paper's interpolators, and ``time_for_completeness`` is a true
  inverse-bound: ``time_for_completeness(value(x)) <= x`` and it is
  monotone in its target;
* **table bit-equality** — every :class:`FrameTable` row equals
  ``Interpolator.value`` evaluated at the same float input with ``==``
  (exact float equality, no tolerance), shared or not;
* **boundary fixes** — zero-duration tables, ``curve(samples=2)``, and the
  documented ``rendered_pixels`` clamp.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.animation.interpolators import (
    AccelerateDecelerateInterpolator,
    AccelerateInterpolator,
    CubicBezierInterpolator,
    DecelerateInterpolator,
    FastOutSlowInInterpolator,
    LinearInterpolator,
)
from repro.animation.kernels import (
    FRAME_TABLE_CACHE,
    FrameTable,
    frame_table,
    rendered_pixels,
)

#: The three interpolators the paper exploits (Fig. 2, Fig. 4).
PAPER_INTERPOLATORS = [
    FastOutSlowInInterpolator(),
    AccelerateInterpolator(),
    DecelerateInterpolator(),
]

ALL_INTERPOLATORS = PAPER_INTERPOLATORS + [
    LinearInterpolator(),
    AccelerateDecelerateInterpolator(),
]

unit_floats = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Curve algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
@pytest.mark.parametrize("samples", [2, 3, 17, 100])
def test_curve_endpoints_exact(interp, samples):
    curve = interp.curve(samples=samples)
    assert len(curve) == samples
    assert curve[0] == (0.0, interp.value(0.0))
    assert curve[-1] == (1.0, interp.value(1.0))
    assert curve[0][1] == 0.0
    assert curve[-1][1] == 1.0


@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
def test_curve_two_samples_is_exactly_the_endpoints(interp):
    assert interp.curve(samples=2) == [(0.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
@pytest.mark.parametrize("samples", [1, 0, -5])
def test_curve_rejects_fewer_than_two_samples(interp, samples):
    with pytest.raises(ValueError):
        interp.curve(samples=samples)


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(x=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_never_overshoots_its_input(interp, x):
    """``time_for_completeness(value(x)) <= x`` (within the bisection
    tolerance): the earliest time reaching a completeness cannot come
    after a time already known to reach it."""
    target = interp.value(x)
    t = interp.time_for_completeness(target)
    assert t <= x + 1e-9


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(a=unit_floats, b=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_is_monotone_in_target(interp, a, b):
    lo, hi = sorted((a, b))
    assert (interp.time_for_completeness(lo)
            <= interp.time_for_completeness(hi) + 1e-9)


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(a=unit_floats, b=unit_floats)
@settings(max_examples=200, deadline=None)
def test_value_is_monotone(interp, a, b):
    lo, hi = sorted((a, b))
    assert interp.value(lo) <= interp.value(hi) + 1e-12


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(x=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_consistency_against_table_rows(interp, x):
    """The inverse lookup agrees with the forward table: for any row, the
    time reported for its completeness reaches that completeness."""
    t = interp.time_for_completeness(interp.value(x))
    assert interp.value(t) >= interp.value(x) - 1e-9


# ---------------------------------------------------------------------------
# Table rows are bit-equal to Interpolator.value
# ---------------------------------------------------------------------------

durations = st.sampled_from([360.0, 500.0, 160.0, 95.0, 10.0, 7.5, 3.0])
refreshes = st.sampled_from([10.0, 16.6, 8.0, 11.1])
heights = st.sampled_from([0, 1, 24, 72, 96, 131])


@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(duration=durations, refresh=refreshes, height=heights)
@settings(max_examples=60, deadline=None)
def test_table_rows_bit_equal_to_scalar_value(interp, duration, refresh, height):
    table = FrameTable(interp, duration, refresh, height)
    for k, (t, completeness, pixels) in enumerate(table.rows()):
        assert t == k * refresh
        x = min(t, duration) / duration
        assert completeness == interp.value(x)  # exact float equality
        assert pixels == rendered_pixels(completeness, height)
    # The final row is the first frame at or past the end: exactly 1.0.
    assert table.times_ms[-1] >= duration
    assert table.completeness[-1] == interp.value(1.0) == 1.0
    assert table.pixels[-1] == height


@given(duration=durations, refresh=refreshes, height=heights)
@settings(max_examples=60, deadline=None)
def test_clamped_frame_reads_match_last_row(duration, refresh, height):
    interp = FastOutSlowInInterpolator()
    table = FrameTable(interp, duration, refresh, height)
    last = table.frame_count - 1
    for index in (last, last + 1, last + 1000):
        assert table.completeness_at_frame(index) == table.completeness[last]
        assert table.pixels_at_frame(index) == table.pixels[last]


def test_first_visible_matches_scalar_search():
    interp = FastOutSlowInInterpolator()
    table = FrameTable(interp, 360.0, 10.0, 72)
    # Scalar reference: first frame k >= 1 whose rendering shows a pixel.
    k = 1
    while True:
        x = min(k * 10.0, 360.0) / 360.0
        if rendered_pixels(interp.value(x), 72) >= 1:
            break
        k += 1
    assert table.first_visible_index == k
    assert table.first_visible_time_ms() == k * 10.0


def test_memoized_tables_are_shared_and_keyed_by_content():
    before = len(FRAME_TABLE_CACHE)
    a = frame_table(FastOutSlowInInterpolator(), 360.0, 10.0, 72)
    b = frame_table(FastOutSlowInInterpolator(), 360.0, 10.0, 72)
    c = frame_table(CubicBezierInterpolator(0.4, 0.0, 0.2, 1.0), 360.0, 10.0, 72)
    assert a is b
    # Same control points => same curve key => same table object.
    assert a is c
    assert frame_table(FastOutSlowInInterpolator(), 360.0, 10.0, 96) is not a
    assert len(FRAME_TABLE_CACHE) >= before


def test_uncacheable_interpolator_gets_an_unshared_table():
    class Weird(AccelerateInterpolator):
        def cache_key(self):
            return None

    before = len(FRAME_TABLE_CACHE)
    interp = Weird()
    table = frame_table(interp, 360.0, 10.0, 72)
    assert frame_table(interp, 360.0, 10.0, 72) is not table
    assert len(FRAME_TABLE_CACHE) == before
    for t, completeness, pixels in table.rows():
        assert completeness == interp.value(min(t, 360.0) / 360.0)
        assert pixels == rendered_pixels(completeness, 72)


# ---------------------------------------------------------------------------
# Boundary fixes: zero duration, rendered_pixels clamp, validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
def test_zero_duration_table_is_single_complete_frame(interp):
    table = FrameTable(interp, 0.0, 10.0, 72)
    assert table.frame_count == 1
    assert table.rows() == ((0.0, 1.0, 72),)
    assert table.first_visible_index == 0
    assert table.first_visible_time_ms() == 0.0
    # Every later frame keeps rendering the completed view.
    assert table.completeness_at_frame(5) == 1.0
    assert table.pixels_at_frame(5) == 72


def test_zero_duration_zero_height_is_never_visible():
    table = FrameTable(LinearInterpolator(), 0.0, 10.0, 0)
    assert table.first_visible_index is None
    assert table.first_visible_time_ms() is None


def test_zero_duration_first_visible_frame_time():
    from repro.animation.animator import first_visible_frame_time

    assert first_visible_frame_time(LinearInterpolator(), 0.0, 10.0, 72) == 0.0
    with pytest.raises(ValueError):
        first_visible_frame_time(LinearInterpolator(), 0.0, 10.0, 0)


def test_rendered_pixels_clamps_out_of_range_completeness():
    # Documented behavior: a view never renders negative pixels, nor more
    # pixels than it has — even for an overshooting custom curve.
    assert rendered_pixels(-0.25, 72) == 0
    assert rendered_pixels(1.25, 72) == 72
    assert rendered_pixels(0.0, 72) == 0
    assert rendered_pixels(1.0, 72) == 72
    # In [0, 1] the clamp is inert: same round-half-up as always.
    assert rendered_pixels(0.0017, 72) == 0  # the paper's 0.17% example
    assert rendered_pixels(0.5, 72) == 36
    assert rendered_pixels(0.9999, 72) == int(math.floor(0.9999 * 72 + 0.5))


@given(c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       h=st.integers(min_value=0, max_value=4096))
@settings(max_examples=200, deadline=None)
def test_rendered_pixels_clamp_is_inert_in_range(c, h):
    assert rendered_pixels(c, h) == int(math.floor(c * h + 0.5))


def test_frame_table_validation():
    interp = LinearInterpolator()
    with pytest.raises(ValueError):
        FrameTable(interp, -1.0, 10.0, 72)
    with pytest.raises(ValueError):
        FrameTable(interp, 360.0, 0.0, 72)
    with pytest.raises(ValueError):
        FrameTable(interp, 360.0, 10.0, -1)
