"""Binder transaction records.

Android IPC is implemented by the Binder; a call such as ``addView`` from an
app to System Server is one *transaction*. The paper's IPC-based defense
(Section VII-A) observes exactly these transactions — "an information-rich
Binder transaction, which can be used to determine which method is called as
well as the caller" — so the simulated transaction carries the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class BinderTransaction:
    """One IPC call travelling between two simulated processes."""

    txn_id: int
    sender: str
    receiver: str
    method: str
    sent_at: float
    delivered_at: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def __init__(self, txn_id: int, sender: str, receiver: str, method: str,
                 sent_at: float, delivered_at: float,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        # The router builds one record per transaction. One update of the
        # instance dict replaces the frozen dataclass's seven
        # ``object.__setattr__`` calls; assignment still raises.
        self.__dict__.update(
            txn_id=txn_id, sender=sender, receiver=receiver, method=method,
            sent_at=sent_at, delivered_at=delivered_at,
            payload={} if payload is None else payload)

    @property
    def latency_ms(self) -> float:
        """Transit time between sender and receiver."""
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BinderTransaction(#{self.txn_id} {self.sender}->{self.receiver} "
            f"{self.method} @{self.sent_at:.3f}+{self.latency_ms:.3f}ms)"
        )
