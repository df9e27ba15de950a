"""System UI: drawer, status bar, and the alert slide-in controller.

System UI is the process that actually draws the overlay-presence alert.
On ``notifyOverlayShown`` it constructs the notification view (cost ``Tv``)
and calls ``startTopAnimation()`` — the 360 ms FastOutSlowIn slide-in. On
``notifyOverlayHidden`` it stops the animation and removes the view (in
reverse). The draw-and-destroy overlay attack wins when the hide always
arrives before the animation's first visible frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..animation.animator import ANIMATION_DURATION_STANDARD, Animator
from ..animation.interpolators import FastOutSlowInInterpolator
from ..binder.router import BinderRouter
from ..binder.transaction import BinderTransaction
from ..devices.profiles import DeviceProfile
from ..sim.event import Event
from ..sim.process import SimProcess
from ..sim.simulation import Simulation
from ..windows.system_server import SYSTEM_UI
from .notification import NotificationEntry, NotificationRecord
from .outcomes import NotificationOutcome, NotificationSnapshot, classify

#: The slide-in easing curve. Stateless, so one shared instance serves all
#: alerts.
_ALERT_INTERPOLATOR = FastOutSlowInInterpolator()


class AlertMode(enum.Enum):
    """How the slide-in animation is evaluated.

    ``FRAME`` schedules a real animator frame every refresh interval —
    maximal fidelity, and the mode that produces per-frame traces.
    ``ANALYTIC`` relies on :class:`NotificationEntry`'s closed-form timeline
    (bit-identical outcomes, far fewer simulation events) — the mode the
    large parameter sweeps use.
    """

    FRAME = "frame"
    ANALYTIC = "analytic"


@dataclass
class _PendingAlert:
    handle: Event
    requested_at: float


@dataclass
class _ActiveAlert:
    entry: NotificationEntry
    animator: Optional[Animator]


@dataclass(frozen=True)
class PostedNotification:
    """One ordinary notification posted into the drawer.

    Unlike the overlay-presence alert (which System Server originates),
    these arrive through the public ``postNotification`` surface — the
    channel a flooding attacker saturates (Knock-Knock style) to push
    the alert below the fold instead of racing its animation.
    """

    package: str
    time: float


#: Maximum notification icons the status bar can show (paper Section
#: II-A2: "Android 10 of Google Pixel 2 can show 4 icons").
STATUS_BAR_ICON_SLOTS = 4


class SystemUi(SimProcess):
    """Simulated System UI process."""

    def __init__(
        self,
        simulation: Simulation,
        router: BinderRouter,
        profile: DeviceProfile,
        mode: AlertMode = AlertMode.FRAME,
        name: str = SYSTEM_UI,
    ) -> None:
        super().__init__(simulation, name)
        self._router = router
        self._profile = profile
        self._mode = mode
        self._pending: Dict[str, _PendingAlert] = {}
        self._active: Dict[str, _ActiveAlert] = {}
        self._records: List[NotificationRecord] = []
        self._posted: List[PostedNotification] = []
        self._ignored_shows = 0
        router.register_many(
            name,
            {
                "notifyOverlayShown": self._handle_shown,
                "notifyOverlayHidden": self._handle_hidden,
                "postNotification": self._handle_post,
            },
        )

    def rearm(self) -> None:
        """Reset to boot state for stack reuse; the alert mode is part of
        the stack's identity and survives (the executor pools per mode)."""
        super().rearm()
        self._pending.clear()
        self._active.clear()
        self._records.clear()
        self._posted.clear()
        self._ignored_shows = 0
        self._router.register_many(
            self.name,
            {
                "notifyOverlayShown": self._handle_shown,
                "notifyOverlayHidden": self._handle_hidden,
                "postNotification": self._handle_post,
            },
        )

    # ------------------------------------------------------------------
    # Binder handlers
    # ------------------------------------------------------------------
    def _handle_shown(self, txn: BinderTransaction) -> None:
        app = txn.payload["app"]
        if app in self._pending or app in self._active:
            # The previous alert is still up (its hide was suppressed): the
            # animation simply continues — the failure mode of a mistimed
            # attack (paper Section III-C Step 2).
            self._ignored_shows += 1
            self.trace("systemui.show_ignored", app=app)
            return
        tv = self._profile.tv.sample(self.rng)
        handle = self.schedule(tv, lambda: self._create_entry(app), name="create-view")
        self._pending[app] = _PendingAlert(handle=handle, requested_at=self.now)
        self.trace("systemui.view_requested", app=app, tv_ms=round(tv, 4))

    def _handle_hidden(self, txn: BinderTransaction) -> None:
        app = txn.payload["app"]
        pending = self._pending.pop(app, None)
        if pending is not None:
            pending.handle.cancel_if_pending()
            # The view was never constructed: nothing could have been seen.
            self._records.append(
                NotificationRecord(
                    app=app,
                    anim_start=pending.requested_at,
                    removed_at=self.now,
                    snapshot=NotificationSnapshot(
                        view_progress=0.0,
                        max_pixels=0,
                        message_progress=0.0,
                        icon_shown=False,
                    ),
                    outcome=NotificationOutcome.LAMBDA1,
                    visible_ms=0.0,
                )
            )
            self.trace("systemui.view_cancelled_precreation", app=app)
            return
        active = self._active.pop(app, None)
        if active is None:
            self.trace("systemui.hide_noop", app=app)
            return
        entry = active.entry
        entry.removed_at = self.now
        if active.animator is not None:
            active.animator.cancel()
        snapshot = entry.snapshot_at(self.now)
        outcome = classify(snapshot)
        self._records.append(
            NotificationRecord(
                app=app,
                anim_start=entry.anim_start,
                removed_at=self.now,
                snapshot=snapshot,
                outcome=outcome,
                visible_ms=entry.visible_time_ms(self.now),
            )
        )
        self.trace("systemui.alert_removed", app=app, outcome=outcome.label,
                   pixels=snapshot.max_pixels)

    def _handle_post(self, txn: BinderTransaction) -> None:
        self.post_notification(txn.payload["package"])

    def post_notification(self, package: str) -> PostedNotification:
        """Accept one ordinary notification into the drawer.

        Posting is deliberately cheap and unthrottled — exactly the
        property the flooding attack abuses. Rate limiting belongs to a
        defense layer, not to this surface.
        """
        posted = PostedNotification(package=package, time=self.now)
        self._posted.append(posted)
        self.trace("systemui.notification_posted", package=package)
        return posted

    # ------------------------------------------------------------------
    def _create_entry(self, app: str) -> None:
        self._pending.pop(app, None)
        entry = NotificationEntry(
            app=app,
            anim_start=self.now,
            view_height_px=self._profile.notification_view_height_px,
            refresh_interval_ms=self._profile.refresh_interval_ms,
            duration_ms=ANIMATION_DURATION_STANDARD,
        )
        animator: Optional[Animator] = None
        if self._mode is AlertMode.FRAME:
            animator = Animator(
                simulation=self.simulation,
                interpolator=_ALERT_INTERPOLATOR,
                duration_ms=ANIMATION_DURATION_STANDARD,
                refresh_interval_ms=self._profile.refresh_interval_ms,
                name=f"alert:{app}",
            )
            animator.start()
        self._active[app] = _ActiveAlert(entry=entry, animator=animator)
        self.trace("systemui.animation_started", app=app)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> AlertMode:
        return self._mode

    @property
    def records(self) -> List[NotificationRecord]:
        return list(self._records)

    @property
    def ignored_shows(self) -> int:
        return self._ignored_shows

    def active_entry(self, app: str) -> Optional[NotificationEntry]:
        active = self._active.get(app)
        return active.entry if active else None

    def active_animator(self, app: str) -> Optional[Animator]:
        active = self._active.get(app)
        return active.animator if active else None

    def has_alert(self, app: str) -> bool:
        return app in self._pending or app in self._active

    def active_apps(self):
        """Apps with an alert currently in the drawer (view created)."""
        return list(self._active)

    def worst_outcome(self, as_of: Optional[float] = None) -> NotificationOutcome:
        """Most-visible Λ outcome across all alert instances so far,
        including alerts still on screen (evaluated as of ``as_of`` /
        now)."""
        time = self.now if as_of is None else as_of
        worst = NotificationOutcome.LAMBDA1
        for record in self._records:
            if record.outcome > worst:
                worst = record.outcome
        for active in self._active.values():
            outcome = active.entry.outcome_at(time)
            if outcome > worst:
                worst = outcome
        return worst

    def outcome_counts(self) -> Dict[NotificationOutcome, int]:
        counts: Dict[NotificationOutcome, int] = {o: 0 for o in NotificationOutcome}
        for record in self._records:
            counts[record.outcome] += 1
        return counts

    def total_visible_ms(self, as_of: Optional[float] = None) -> float:
        """Total time any alert had >= 1 rendered pixel."""
        time = self.now if as_of is None else as_of
        total = sum(record.visible_ms for record in self._records)
        total += sum(
            active.entry.visible_time_ms(time) for active in self._active.values()
        )
        return total

    def posted_notifications(self) -> List[PostedNotification]:
        """Ordinary notifications accepted so far, in posting order."""
        return list(self._posted)

    def posted_count(self, as_of: Optional[float] = None) -> int:
        time = self.now if as_of is None else as_of
        return sum(1 for p in self._posted if p.time <= time)

    def alert_drawer_depth(self, app: str,
                           as_of: Optional[float] = None) -> Optional[int]:
        """Notifications stacked *above* ``app``'s alert in the drawer.

        The drawer lists newest first, so the depth is the count of
        ordinary notifications posted after the alert's animation
        started. ``None`` when ``app`` has no alert up (pending alerts
        count from their request time: the view will materialize below
        anything posted meanwhile).
        """
        time = self.now if as_of is None else as_of
        active = self._active.get(app)
        if active is not None:
            anchor = active.entry.anim_start
        else:
            pending = self._pending.get(app)
            if pending is None:
                return None
            anchor = pending.requested_at
        return sum(1 for p in self._posted if anchor < p.time <= time)

    def alert_occluded(self, app: str, slots: int = STATUS_BAR_ICON_SLOTS,
                       as_of: Optional[float] = None) -> bool:
        """Is ``app``'s alert pushed out of the visible drawer region?

        With ``slots`` newer notifications above it, the alert's icon no
        longer fits the status bar and its row sits below the drawer
        fold — the user must scroll to ever see it (paper Section II-A2
        caps the Pixel 2 status bar at 4 icons).
        """
        depth = self.alert_drawer_depth(app, as_of=as_of)
        return depth is not None and depth >= slots

    def status_bar_icons(self, as_of: Optional[float] = None) -> int:
        """Icons currently shown in the status bar (capped at 4 slots)."""
        time = self.now if as_of is None else as_of
        icons = sum(
            1
            for active in self._active.values()
            if active.entry.snapshot_at(time).icon_shown
        )
        return min(icons, STATUS_BAR_ICON_SLOTS)
