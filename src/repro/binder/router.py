"""Binder router: delivers transactions between simulated processes."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..obs.metrics import FOLD_CAP, DerivedCounters
from ..sim.process import SimProcess
from ..sim.simulation import Simulation
from .latency import FixedLatency, LatencyModel
from .transaction import BinderTransaction

TransactionHandler = Callable[[BinderTransaction], None]
TransactionObserver = Callable[[BinderTransaction], None]


class BinderRouter(SimProcess):
    """Routes Binder transactions with modelled latency.

    Receivers register a handler per ``(receiver, method)``; senders call
    :meth:`transact`. Delivery is scheduled on the simulation clock after a
    latency drawn from the router's :class:`LatencyModel` (or an explicit
    per-call latency, which the Android services use for the
    device-calibrated ``Tam``/``Trm``/``Tn`` paths).

    Observers see every transaction at *send* time — this is the hook the
    IPC-based defense (paper Section VII-A) plugs into: a "minor" change to
    the Binder code that forwards caller and timestamp to an analyzer.
    """

    def __init__(
        self,
        simulation: Simulation,
        latency_model: Optional[LatencyModel] = None,
        name: str = "binder",
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__(simulation, name)
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self._latency_model = latency_model or FixedLatency(0.5)
        self._handlers: Dict[str, Dict[str, TransactionHandler]] = {}
        self._observers: List[TransactionObserver] = []
        self._txn_counter = 0
        self._delivered = 0
        #: Per-FIFO-channel floor on delivery times. Clamping happens in
        #: the router *after* all latency (modelled, explicit and fault
        #: jitter) is known, so ordering guarantees hold even under
        #: adversarial Binder jitter.
        self._fifo_last: Dict[str, float] = {}
        #: Failure injection: fraction of transactions silently dropped in
        #: transit (0 in normal operation; real Binder does not lose
        #: messages — this knob exists for robustness testing).
        self.loss_probability = float(loss_probability)
        self._dropped = 0
        # Instruments resolved once; they survive rearm() so a registry
        # aggregates Binder traffic across every trial of an experiment.
        # The three counters are read from the counts above when the
        # registry folds; transit times go to a registry buffer.
        registry = simulation.metrics
        self._counted: Optional[DerivedCounters] = None
        if registry is not None:
            self._counted = DerivedCounters(registry, (
                "binder_transactions_sent_total",
                "binder_transactions_delivered_total",
                "binder_transactions_dropped_total",
            ), self._counts)
            self._m_transit = registry.buffer("binder_transit_ms")
            self._transits: Optional[List[float]] = self._m_transit.pending
        else:
            self._transits = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def latency_model(self) -> LatencyModel:
        return self._latency_model

    def register(self, receiver: str, method: str, handler: TransactionHandler) -> None:
        """Register ``handler`` for transactions to ``receiver.method``."""
        methods = self._handlers.setdefault(receiver, {})
        if method in methods:
            raise ValueError(f"handler for {receiver}.{method} already registered")
        methods[method] = handler

    def register_many(
        self, receiver: str, handlers: Dict[str, TransactionHandler]
    ) -> None:
        for method, handler in handlers.items():
            self.register(receiver, method, handler)

    def add_observer(self, observer: TransactionObserver) -> None:
        self._observers.append(observer)

    def rearm(self) -> None:
        """Reset routing state for stack reuse.

        Handlers are dropped too: the boot-time services re-register theirs
        in :meth:`AndroidStack.reset`, which reproduces ``build_stack``'s
        wiring exactly and sheds anything a defense or test registered
        mid-trial. The latency model is stateless and survives.
        """
        super().rearm()
        if self._counted is not None:
            self._counted.rewind()
        self._handlers.clear()
        self._observers.clear()
        self._txn_counter = 0
        self._delivered = 0
        self._fifo_last.clear()
        self.loss_probability = 0.0
        self._dropped = 0

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @property
    def transactions_sent(self) -> int:
        return self._txn_counter

    @property
    def transactions_delivered(self) -> int:
        return self._delivered

    @property
    def transactions_dropped(self) -> int:
        return self._dropped

    def transact(
        self,
        sender: str,
        receiver: str,
        method: str,
        payload: Optional[dict] = None,
        latency_ms: Optional[float] = None,
        fifo_key: Optional[str] = None,
    ) -> BinderTransaction:
        """Send one transaction; returns the (already timestamped) record.

        ``fifo_key`` names a FIFO channel: deliveries sharing a key never
        reorder, even when fault jitter stretches an earlier transaction's
        transit time. Real Binder preserves per-connection ordering, so the
        System Server -> System UI alert channel depends on this (a hide
        overtaking its show would leave a phantom alert).
        """
        handler = self._lookup_handler(receiver, method)
        if latency_ms is None:
            latency_ms = self._latency_model.sample(self._rng, method)
        if latency_ms < 0:
            raise ValueError(f"negative binder latency {latency_ms} for {method}")
        plan = self.simulation.faults
        if plan is not None:
            # Fault jitter stacks on top of whatever latency was chosen,
            # including the explicit device-calibrated Tam/Trm paths —
            # a loaded Binder thread pool delays those the same way.
            latency_ms += plan.binder_delay()
        now = self.now
        if fifo_key is not None:
            floor = self._fifo_last.get(fifo_key, 0.0)
            delivery = max(now + latency_ms, floor + 1e-6)
            self._fifo_last[fifo_key] = delivery
            latency_ms = delivery - now
        self._txn_counter += 1
        transits = self._transits
        if transits is not None:
            counted = self._counted
            if not counted.tracked:
                counted.track()
            # Transit time as scheduled, including model latency, fault
            # jitter and FIFO clamping — the "transit jitter" series.
            transits.append(latency_ms)
            if not self._txn_counter % FOLD_CAP:
                self._m_transit.fold()
        txn = BinderTransaction(
            txn_id=self._txn_counter,
            sender=sender,
            receiver=receiver,
            method=method,
            sent_at=now,
            delivered_at=now + latency_ms,
            payload=dict(payload or {}),
        )
        if self.tracing:
            self.trace("binder.transact", txn_id=txn.txn_id, sender=sender,
                       receiver=receiver, method=method,
                       latency_ms=round(latency_ms, 4))
        for observer in self._observers:
            observer(txn)
        dropped = bool(self.loss_probability) and self._rng.chance(self.loss_probability)
        if not dropped and plan is not None and plan.drop_binder():
            dropped = True
        if dropped:
            self._dropped += 1
            self.trace("binder.dropped", txn_id=txn.txn_id, method=method)
            return txn

        def deliver() -> None:
            self._delivered += 1
            counted = self._counted
            if counted is not None and not counted.tracked:
                counted.track()
            handler(txn)

        self.schedule(latency_ms, deliver, name=f"deliver:{method}")
        return txn

    def _counts(self) -> Tuple[int, int, int]:
        return (self._txn_counter, self._delivered, self._dropped)

    def _lookup_handler(self, receiver: str, method: str) -> TransactionHandler:
        methods = self._handlers.get(receiver)
        if methods is None:
            raise KeyError(f"no receiver registered under {receiver!r}")
        handler = methods.get(method)
        if handler is None:
            raise KeyError(f"receiver {receiver!r} has no handler for {method!r}")
        return handler
