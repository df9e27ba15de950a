"""Alternative triggers for "when does the user enter the password?".

The paper uses the accessibility service "as just an example to
demonstrate draw and destroy attacks while other approaches can be used to
detect when the user enters the password" (Section VI-C2), citing the
shared-memory side channel of Chen et al. [9] and others.

:class:`UiStateSideChannel` models that family: the malware periodically
samples a public side channel correlated with the victim's UI state (on
real Android: /proc counters, shared-memory sizes) and fires when the
inferred state becomes "password field focused". The channel has a polling
interval, a detection latency distribution and a false-negative rate —
enough to study how trigger quality affects end-to-end theft.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..apps.victim import VictimApp
from ..sim.event import Event
from ..sim.process import SimProcess
from ..stack import AndroidStack


@dataclass(frozen=True)
class SideChannelConfig:
    """Quality parameters of the UI-state side channel."""

    #: How often the malware samples the channel (ms). Chen et al. poll in
    #: the tens of ms.
    poll_interval_ms: float = 30.0
    #: Per-poll probability that a true "password focused" state is missed
    #: (the side channel is noisy).
    miss_probability: float = 0.05
    #: Extra inference latency once a hit lands (feature extraction).
    inference_latency_ms: float = 15.0

    def __post_init__(self) -> None:
        if self.poll_interval_ms <= 0:
            raise ValueError(
                f"poll_interval_ms must be positive, got {self.poll_interval_ms}"
            )
        if not 0.0 <= self.miss_probability < 1.0:
            raise ValueError(
                f"miss_probability must be in [0, 1), got {self.miss_probability}"
            )
        if self.inference_latency_ms < 0:
            raise ValueError(
                f"inference_latency_ms must be >= 0, got {self.inference_latency_ms}"
            )


class UiStateSideChannel(SimProcess):
    """Polls the victim's UI state and fires a trigger callback.

    Unlike the accessibility path this needs *no* service registration —
    only the ability to read public side channels, which is exactly why
    Alipay-style accessibility hardening does not stop it.
    """

    def __init__(
        self,
        stack: AndroidStack,
        victim: VictimApp,
        on_password_focus: Callable[[], None],
        config: Optional[SideChannelConfig] = None,
        name: str = "sidechannel",
    ) -> None:
        super().__init__(stack.simulation, name)
        self.victim = victim
        self.config = config or SideChannelConfig()
        self._on_password_focus = on_password_focus
        self._handle: Optional[Event] = None
        self._running = False
        self._fired = False
        self.polls = 0
        self.misses = 0
        self.detected_at: Optional[float] = None

    @property
    def running(self) -> bool:
        return self._running

    @property
    def fired(self) -> bool:
        return self._fired

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_poll()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel_if_pending()
            self._handle = None

    # ------------------------------------------------------------------
    def _schedule_poll(self) -> None:
        self._handle = self.schedule(
            self.config.poll_interval_ms, self._poll, name="poll"
        )

    def _poll(self) -> None:
        self._handle = None
        if not self._running or self._fired:
            return
        self.polls += 1
        if self.victim.password_widget.focused:
            if self.rng.chance(self.config.miss_probability):
                self.misses += 1
            else:
                self._fired = True
                self.detected_at = self.now
                self.trace("sidechannel.detected", polls=self.polls)
                self.schedule(
                    self.config.inference_latency_ms,
                    self._on_password_focus,
                    name="trigger",
                )
                return
        self._schedule_poll()

    # ------------------------------------------------------------------
    def expected_detection_latency_ms(self) -> float:
        """Mean latency from focus to trigger: half a poll interval, plus
        retries for misses, plus inference."""
        poll = self.config.poll_interval_ms
        miss = self.config.miss_probability
        expected_polls = 1.0 / (1.0 - miss)
        return poll / 2.0 + (expected_polls - 1.0) * poll + \
            self.config.inference_latency_ms
