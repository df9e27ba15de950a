"""System Server: the Window-Manager side of the simulated Android system.

This process implements the behaviours from the paper's Fig. 3 sequence
chart:

* ``addView``: arriving from an app's main thread after ``Tam``, it takes
  ``Tas`` to create the window and put it on screen; for overlay windows it
  then notifies System UI (latency ``Tn``) to show the overlay-presence
  alert — built-in defense (ii) of Section II-A2.
* ``removeView``: arriving after ``Trm``, the window is removed *instantly*;
  System Server then checks whether the app still has an overlay in the
  foreground, and only if not notifies System UI to remove the alert.

The alert-removal path is pluggable (``overlay_alert_policy``) because that
is precisely where the paper's enhanced-notification defense intervenes
(Section VII-B): delaying the removal notification by ``t`` ms defeats the
draw-and-destroy overlay attack.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..binder.router import BinderRouter
from ..binder.transaction import BinderTransaction
from ..devices.profiles import DeviceProfile
from ..sim.process import SimProcess
from ..sim.simulation import Simulation
from .permissions import Permission, PermissionManager
from .screen import Screen
from .types import PRIVILEGED_OVERLAY_TYPES, WindowType
from .window import Window

#: Binder receiver name for System Server.
SYSTEM_SERVER = "system_server"
#: Binder receiver name for System UI.
SYSTEM_UI = "system_ui"


class OverlayAlertPolicy:
    """Default policy: notify System UI immediately on show/hide."""

    def __init__(self, server: "SystemServer") -> None:
        self._server = server

    def on_overlay_shown(self, owner: str) -> None:
        self._server.notify_system_ui_show(owner)

    def on_all_overlays_removed(self, owner: str) -> None:
        self._server.notify_system_ui_hide(owner)


class SystemServer(SimProcess):
    """Simulated System Server (window management slice)."""

    def __init__(
        self,
        simulation: Simulation,
        router: BinderRouter,
        screen: Screen,
        permissions: PermissionManager,
        profile: DeviceProfile,
        name: str = SYSTEM_SERVER,
    ) -> None:
        super().__init__(simulation, name)
        self._router = router
        self._screen = screen
        self._permissions = permissions
        self._profile = profile
        self._protected_apps: Set[str] = set()
        self._foreground_app: Optional[str] = None
        self._rejected_overlays = 0
        self._windows_created = 0
        self._pending_creations: Dict[int, object] = {}
        #: Windows whose removeView was delivered before their addView
        #: (possible when Trm jitters below Tam): the pending removal
        #: tombstone makes the late add a no-op.
        self._removal_tombstones: Set[int] = set()
        #: Per-app overlay-alert notifications not yet dispatched to System
        #: UI (the dispatch is delayed by Tn — on Android 10/11 dominated
        #: by the ANA initialization delay). A hide arriving while the show
        #: is still pending cancels it before System UI ever hears of it.
        self._pending_show_notifications: Dict[str, object] = {}
        self._notifications_cancelled_before_post = 0
        #: FIFO channel key for messages to System UI (a hide must never
        #: overtake its show). The router clamps delivery per key after all
        #: latency — including fault jitter — is applied.
        self._ui_fifo_key = f"{name}->{SYSTEM_UI}"
        self.overlay_alert_policy: OverlayAlertPolicy = OverlayAlertPolicy(self)
        #: Optional callback fired whenever an app is flagged malicious by a
        #: defense (the IPC detector uses this to "terminate" the app).
        self.on_app_terminated: Optional[Callable[[str], None]] = None
        self._terminated_apps: Set[str] = set()
        router.register_many(
            name,
            {
                "addView": self._handle_add_view,
                "removeView": self._handle_remove_view,
            },
        )

    def rearm(self) -> None:
        """Reset to boot state for stack reuse.

        Besides the bookkeeping, this restores the two pluggable points a
        trial may have replaced: ``overlay_alert_policy`` (swapped by the
        enhanced-notification defense) and ``on_app_terminated`` (set by
        the IPC detector), and re-registers the Binder handlers the
        router's rearm dropped.
        """
        super().rearm()
        self._protected_apps.clear()
        self._foreground_app = None
        self._rejected_overlays = 0
        self._windows_created = 0
        self._pending_creations.clear()
        self._removal_tombstones.clear()
        self._pending_show_notifications.clear()
        self._notifications_cancelled_before_post = 0
        self.overlay_alert_policy = OverlayAlertPolicy(self)
        self.on_app_terminated = None
        self._terminated_apps.clear()
        self._router.register_many(
            self.name,
            {
                "addView": self._handle_add_view,
                "removeView": self._handle_remove_view,
            },
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def screen(self) -> Screen:
        return self._screen

    @property
    def router(self) -> BinderRouter:
        return self._router

    @property
    def profile(self) -> DeviceProfile:
        return self._profile

    @property
    def permissions(self) -> PermissionManager:
        return self._permissions

    @property
    def rejected_overlays(self) -> int:
        return self._rejected_overlays

    @property
    def windows_created(self) -> int:
        return self._windows_created

    @property
    def terminated_apps(self) -> Set[str]:
        return set(self._terminated_apps)

    # ------------------------------------------------------------------
    # Foreground / protected apps (built-in defense (iii))
    # ------------------------------------------------------------------
    def set_foreground_app(self, app: Optional[str]) -> None:
        self._foreground_app = app

    @property
    def foreground_app(self) -> Optional[str]:
        return self._foreground_app

    def protect_app(self, app: str) -> None:
        """Mark an app (system Settings, the installer) as un-coverable:
        Android >= 8 prevents any overlay from covering it (Section
        II-A2)."""
        self._protected_apps.add(app)

    # ------------------------------------------------------------------
    # Binder entry points
    # ------------------------------------------------------------------
    def _handle_add_view(self, txn: BinderTransaction) -> None:
        window: Window = txn.payload["window"]
        owner = txn.sender
        if owner in self._terminated_apps:
            self.trace("wms.add_rejected", owner=owner, reason="terminated")
            self._rejected_overlays += 1
            return
        if window.on_screen or window.window_id in self._pending_creations:
            self.trace("wms.add_duplicate", owner=owner, label=window.label)
            return
        if window.window_id in self._removal_tombstones:
            self._removal_tombstones.discard(window.window_id)
            self.trace("wms.add_after_remove", owner=owner, label=window.label)
            return
        if window.window_type in PRIVILEGED_OVERLAY_TYPES:
            if not self._permissions.is_granted(owner, Permission.SYSTEM_ALERT_WINDOW):
                self.trace("wms.add_rejected", owner=owner, reason="permission")
                self._rejected_overlays += 1
                return
            if self._foreground_app in self._protected_apps:
                self.trace(
                    "wms.add_rejected", owner=owner, reason="protected_foreground"
                )
                self._rejected_overlays += 1
                return
        tas = self._profile.tas.sample(self.rng)
        if self.tracing:
            self.trace("wms.creating_window", owner=owner, label=window.label,
                       tas_ms=round(tas, 4))

        def finish_creation() -> None:
            self._pending_creations.pop(window.window_id, None)
            if owner in self._terminated_apps:
                return
            self._screen.add(window, self.now)
            self._windows_created += 1
            self.trace("wms.window_added", owner=owner, label=window.label)
            if window.window_type is WindowType.APPLICATION_OVERLAY:
                if self._profile.android_version.overlay_alert:
                    self.overlay_alert_policy.on_overlay_shown(owner)

        handle = self.schedule(tas, finish_creation, name="create-window")
        self._pending_creations[window.window_id] = handle

    def _handle_remove_view(self, txn: BinderTransaction) -> None:
        window: Window = txn.payload["window"]
        owner = txn.sender
        pending = self._pending_creations.pop(window.window_id, None)
        if pending is not None:
            # Remove raced ahead of a still-pending creation: abort the
            # creation and treat the window as gone.
            pending.cancel_if_pending()
            self.trace("wms.creation_cancelled", owner=owner, label=window.label)
            if window.window_type is WindowType.APPLICATION_OVERLAY:
                if not self._screen.has_overlay_of(owner):
                    if self._profile.android_version.overlay_alert:
                        self.overlay_alert_policy.on_all_overlays_removed(owner)
            return
        if not window.on_screen:
            # The remove overtook the add in transit: leave a tombstone so
            # the late-arriving add does not resurrect the window.
            self._removal_tombstones.add(window.window_id)
            self.trace("wms.remove_before_add", owner=owner, label=window.label)
            return
        self._screen.remove(window, self.now)
        self.trace("wms.window_removed", owner=owner, label=window.label)
        if window.window_type is WindowType.APPLICATION_OVERLAY:
            if not self._screen.has_overlay_of(owner):
                if self._profile.android_version.overlay_alert:
                    self.overlay_alert_policy.on_all_overlays_removed(owner)

    # ------------------------------------------------------------------
    # Direct (same-process) window operations, used by the toast service
    # ------------------------------------------------------------------
    def add_window_direct(
        self, window: Window, on_added: Optional[Callable[[], None]] = None
    ) -> None:
        """Create and show a window from inside System Server (no Binder
        hop, but window creation still costs ``Tas``)."""
        tas = self._profile.tas.sample(self.rng)

        def finish() -> None:
            self._screen.add(window, self.now)
            self._windows_created += 1
            self.trace("wms.window_added", owner=window.owner, label=window.label)
            if on_added is not None:
                on_added()

        self.schedule(tas, finish, name="create-window-direct")

    def remove_window_direct(self, window: Window) -> None:
        if window.on_screen:
            self._screen.remove(window, self.now)
            self.trace("wms.window_removed", owner=window.owner, label=window.label)

    # ------------------------------------------------------------------
    # System UI notification plumbing
    # ------------------------------------------------------------------
    def notify_system_ui_show(self, owner: str) -> None:
        """Queue the overlay-presence alert for System UI.

        The notification spends ``Tn`` inside System Server before dispatch
        (on Android 10/11 this includes the intentional 100/200 ms ANA
        initialization delay the attack benefits from, Section VI-B); the
        Binder hop itself is fast. Ordering with the hide path is preserved
        because both run through this service.
        """
        if owner in self._pending_show_notifications:
            # An alert for this app is already on its way to System UI; a
            # further overlay does not restart the dispatch delay.
            return
        tn = self._profile.tn.sample(self.rng)

        def dispatch() -> None:
            self._pending_show_notifications.pop(owner, None)
            self._transact_system_ui("notifyOverlayShown", owner)

        handle = self.schedule(tn, dispatch, name=f"notify-show:{owner}")
        self._pending_show_notifications[owner] = handle

    def notify_system_ui_hide(self, owner: str) -> None:
        pending = self._pending_show_notifications.pop(owner, None)
        if pending is not None:
            # The alert was never posted: cancel it silently. This is the
            # common case during a well-timed draw-and-destroy attack.
            pending.cancel_if_pending()
            self._notifications_cancelled_before_post += 1
            self.trace("wms.notification_cancelled_before_post", owner=owner)
            return
        self._transact_system_ui("notifyOverlayHidden", owner)

    def _transact_system_ui(self, method: str, owner: str) -> None:
        latency = self._profile.tn_remove.sample(self.rng)
        self._router.transact(
            sender=self.name,
            receiver=SYSTEM_UI,
            method=method,
            payload={"app": owner},
            latency_ms=latency,
            fifo_key=self._ui_fifo_key,
        )

    @property
    def notifications_cancelled_before_post(self) -> int:
        return self._notifications_cancelled_before_post

    # ------------------------------------------------------------------
    # Defense support
    # ------------------------------------------------------------------
    def terminate_app(self, app: str) -> None:
        """Kill an app flagged by a defense: its windows are torn down and
        further addView calls are rejected."""
        self._terminated_apps.add(app)
        for window in list(self._screen.windows_of(app)):
            self._screen.remove(window, self.now)
        if self._profile.android_version.overlay_alert:
            self.overlay_alert_policy.on_all_overlays_removed(app)
        self.trace("wms.app_terminated", app=app)
        if self.on_app_terminated is not None:
            self.on_app_terminated(app)

    def has_overlay_of(self, owner: str) -> bool:
        return self._screen.has_overlay_of(owner)
