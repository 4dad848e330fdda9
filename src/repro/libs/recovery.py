"""Shared recovery machinery for the hardened library protocols.

When a :class:`~repro.sim.faults.FaultPlan` is armed, the communication
libraries switch from the paper's reliable-network fast paths to
*hardened* protocols (docs/FAULTS.md): payloads carry CRC32 checksums,
senders retransmit with exponential backoff until the receiver
acknowledges, and every blocking wait is bounded so a lost packet
surfaces as a typed :class:`~repro.vmmc.errors.VmmcError` subclass
instead of a hang.

Each library keeps one send path and one receive path; hardening only
adds the CRC words and wraps the send in :func:`retransmit`.  This
module holds what the hardened protocols share:

* :func:`retransmit` — the one retry loop: transmit, wait for the ack
  with exponential backoff, optionally ask the peer to replay;
* :func:`crc32_of` — checksum over several byte chunks;
* :func:`bounded_poll` — a deadline-bounded wait on remote memory
  (watchpoint-driven like :meth:`UserProcess.poll`, so event count
  scales with writes, not with the deadline);
* the common retry constants: the attempt budget, the backoff
  schedule and the receivers' idle bound.

A receiver serving several peers sleeps on all their buffers at once
with :meth:`UserProcess.wait_any`.  Every helper is a pure function of
simulated state, so hardened runs stay deterministic: same seed, same
schedule, same outcome.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from ..kernel.process import UserProcess
from ..vmmc.errors import VmmcTransferError

__all__ = ["IDLE_US", "MAX_XMIT", "RETRY_BASE_US", "RETRY_PER_BYTE_US",
           "attempt_timeout_us", "bounded_poll", "crc32_of", "retransmit"]

# Transmission attempts before a hardened sender gives up with a typed
# timeout error.  With exponential backoff the total wait is
# base * (2**MAX_XMIT - 1), comfortably under the harness watchdog.
MAX_XMIT = 6

# Attempt-0 ack budget: a fixed turnaround allowance plus transfer time.
RETRY_BASE_US = 400.0
RETRY_PER_BYTE_US = 0.1

# How long a hardened receiver waits with nothing arriving before it
# declares the peer lost.  Generously above a sender's whole retry
# budget (RETRY_BASE_US * (2**MAX_XMIT - 1) for a small message).
IDLE_US = 1_000_000.0


def crc32_of(*chunks: bytes) -> int:
    """CRC32 over the concatenation of ``chunks`` (no copy)."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def attempt_timeout_us(base_us: float, attempt: int) -> float:
    """Backoff schedule: the wait budget for retransmission ``attempt``.

    Attempt 0 waits ``base_us``; each further attempt doubles it, so a
    transient pile-up (delayed packets, a stalled DMA engine) gets
    progressively more room before the next retransmission.
    """
    return base_us * (2.0 ** attempt)


def bounded_poll(
    proc: UserProcess,
    vaddr: int,
    nbytes: int,
    predicate: Callable[[bytes], bool],
    timeout_us: float,
):
    """Wait at most ``timeout_us`` for ``predicate`` to hold at ``vaddr``.

    Returns the satisfying bytes, or None when the deadline passes
    first.  A thin wrapper over :meth:`UserProcess.poll` with a relative
    deadline — the hardened protocols' standard "wait for the ack, but
    not forever" shape.
    """
    result = yield from proc.poll(
        vaddr, nbytes, predicate, deadline=proc.sim.now + timeout_us
    )
    return result


def retransmit(
    transmit: Callable[[], object],
    await_ack: Callable[[float], object],
    nbytes: int,
    sent: bool = False,
    on_miss: Optional[Callable[[], object]] = None,
):
    """The hardened senders' retry loop; returns the ack, or None.

    Each of :data:`MAX_XMIT` attempts runs the generator ``transmit()``
    and then ``await_ack(timeout_us)``, which returns the ack or None at
    its deadline.  Attempt ``k`` waits ``attempt_timeout_us(RETRY_BASE_US
    + RETRY_PER_BYTE_US * nbytes, k)``.  ``sent=True`` means the caller
    already made the first transmission, so attempt 0 only waits.  A DU
    abort (:class:`VmmcTransferError`) uses up its attempt at once; an
    attempt whose wait ends without an ack runs ``on_miss()`` (e.g. a
    replay request) before the next.  Returns None once the budget is
    spent; the caller raises its library's typed timeout.

    ``transmit`` must be idempotent with respect to protocol state: it
    is the same function the fault-free path calls once.
    """
    base_us = RETRY_BASE_US + RETRY_PER_BYTE_US * nbytes
    for attempt in range(MAX_XMIT):
        if attempt or not sent:
            try:
                yield from transmit()
            except VmmcTransferError:
                continue
        ack = yield from await_ack(attempt_timeout_us(base_us, attempt))
        if ack is not None:
            return ack
        if on_miss is not None:
            yield from on_miss()
    return None
