"""Shared pieces of the three workloads: the outcome record, memory and
process bookkeeping."""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import threading
from dataclasses import dataclass, field
from typing import Dict, List


def nproc() -> int:
    """Cores this process may run on; no workload uses more workers."""
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics other than setup_s and peak_rss_mb.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    notes: List[str] = field(default_factory=list)


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child of this process has ended."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


def stop_resource_tracker(timeout: float = 30.0) -> None:
    """Stop multiprocessing's resource tracker, if this process started
    one, and wait until it has ended.

    A spawn-context process or pool starts the tracker as a child that
    only exits once every holder of its pipe is gone, so it would
    otherwise outlive the run. Call this after every worker is joined.
    A pool's queues unregister their semaphores with the tracker when
    they are finalized, which would start a new tracker at interpreter
    exit; so first let the pools' manager threads end and collect their
    queues.
    """
    from multiprocessing import resource_tracker

    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(timeout)
    gc.collect()
    resource_tracker._resource_tracker._stop()


def own_peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
