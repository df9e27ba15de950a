"""Enhanced-notification defense (paper Section VII-B).

The draw-and-destroy overlay attack survives because every ``removeView``
makes System Server tell System UI to take the alert down before its
slide-in could show anything. The defense postpones that hide message by
``t`` ms (the paper validates ``t = 690 ms`` on a Pixel 2):

* the app removes its overlay -> System Server waits ``t`` before
  notifying System UI;
* if the *same app* adds a new overlay during the wait, the hide is
  dropped entirely — the alert keeps animating to full visibility and the
  user sees it.

With the 360 ms slide-in plus view construction, ``t = 690 ms`` guarantees
the alert completes no matter how the attacker picks ``D``.
"""

from __future__ import annotations

from typing import Dict

from ..sim.event import Event
from ..windows.system_server import OverlayAlertPolicy, SystemServer

#: The delay the paper installs in its AOSP 10 build.
DEFAULT_HIDE_DELAY_MS = 690.0


class EnhancedNotificationDefense(OverlayAlertPolicy):
    """Alert policy that debounces the hide notification."""

    def __init__(
        self, server: SystemServer, hide_delay_ms: float = DEFAULT_HIDE_DELAY_MS
    ) -> None:
        super().__init__(server)
        if hide_delay_ms < 0:
            raise ValueError(f"hide_delay_ms must be >= 0, got {hide_delay_ms}")
        self._server = server
        self.hide_delay_ms = float(hide_delay_ms)
        self._pending_hides: Dict[str, Event] = {}
        self._hides_suppressed = 0
        self._hides_delivered = 0

    # ------------------------------------------------------------------
    @property
    def hides_suppressed(self) -> int:
        """Hide messages dropped because the app re-added an overlay."""
        return self._hides_suppressed

    @property
    def hides_delivered(self) -> int:
        return self._hides_delivered

    def install(self) -> "EnhancedNotificationDefense":
        self._server.overlay_alert_policy = self
        return self

    # ------------------------------------------------------------------
    def on_overlay_shown(self, owner: str) -> None:
        pending = self._pending_hides.pop(owner, None)
        if pending is not None:
            # The same app re-added during the delay: keep the alert.
            pending.cancel_if_pending()
            self._hides_suppressed += 1
        self._server.notify_system_ui_show(owner)

    def on_all_overlays_removed(self, owner: str) -> None:
        existing = self._pending_hides.pop(owner, None)
        if existing is not None:
            existing.cancel_if_pending()

        def deliver_hide() -> None:
            self._pending_hides.pop(owner, None)
            if not self._server.has_overlay_of(owner):
                self._hides_delivered += 1
                self._server.notify_system_ui_hide(owner)

        self._pending_hides[owner] = self._server.schedule(
            self.hide_delay_ms, deliver_hide, name=f"delayed-hide:{owner}"
        )
