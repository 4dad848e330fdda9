"""Generator-based simulation processes.

A simulation *process* is a Python generator that yields :class:`Event`
objects (or other processes — a :class:`Process` is itself an event that
triggers on completion).  Yielding suspends the process until the event
triggers; the event's value is sent back into the generator, and a failed
event has its exception thrown in.  A process may also yield a plain
``float``: an absolute deadline to sleep until, which costs one scheduler
entry and no :class:`Event` (the model's own timed operations sleep this
way; see docs/SIMULATOR.md, "Plain sleeps").

This is the execution model for the software side of the SHRIMP model:
user programs, the SHRIMP daemons, and the benchmark harnesses (the
NIC's fixed-function stages are plain scheduled callbacks instead).
Library calls (``csend``, ``clnt_call``, ``send``...) are written as
generator functions that the application process delegates to with
``yield from``, mirroring the paper's "runs entirely at user level"
structure: the library code literally executes on the application process.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from .core import NORMAL, URGENT, Event, SimulationError, Simulator, Timeout

__all__ = ["Interrupt", "Process", "spawn"]


class Interrupt(Exception):
    """Thrown into a process that gets interrupted mid-wait.

    Used to model asynchronous control transfer — most importantly signal
    delivery to a process blocked in the notification layer.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, usable as an event that fires at completion.

    The process's value is the generator's return value (``StopIteration``
    payload); an uncaught exception inside the generator fails the process
    event, propagating to any process waiting on it.  An exception with no
    waiters is re-raised out of the event loop so bugs never pass silently.
    """

    __slots__ = ("_generator", "_waiting_on", "_sleep", "_interrupts")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process requires a generator; got %r. Did you call a plain "
                "function instead of a generator function?" % (generator,)
            )
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # The seq of the pending plain sleep's heap entry, 0 when none:
        # an entry whose seq no longer matches is stale and ignored.
        self._sleep = 0
        self._interrupts: list = []
        # Kick off on the event loop (not synchronously) for determinism.
        sim.schedule_call(0.0, self._resume, None)

    # -- lifecycle -------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True until the generator finishes or raises."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a finished process is an error.  Multiple interrupts
        queue up and are delivered one per resumption.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt finished process %r" % (self,))
        self._interrupts.append(cause)
        self.sim.schedule_call(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self.triggered or not self._interrupts:
            return
        cause = self._interrupts.pop(0)
        self._sleep = 0
        waited = self._waiting_on
        if waited is not None:
            self._waiting_on = None
            # The event may still fire later; detach our resumption so the
            # process isn't resumed twice.
            if waited.callbacks is not None and self._event_done in waited.callbacks:
                waited.callbacks.remove(self._event_done)
        self._advance(Interrupt(cause), throwing=True)

    # -- generator driving -------------------------------------------------
    def _resume(self, send_value: Any) -> None:
        self._advance(send_value)

    def _wake(self, seq: int) -> None:
        # Dispatch of a plain sleep's entry; skipped once an interrupt
        # has cancelled the sleep it belongs to.
        if self._sleep == seq:
            self._sleep = 0
            self._advance(None)

    def _event_done(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale callback (we were interrupted away from it)
        self._waiting_on = None
        if event._ok:
            self._advance(event._value)
        else:
            # Throwing the exception into the waiter is consumption: the
            # failure has an owner now.
            event._defused = True
            self._advance(event._value, throwing=True)

    def _advance(self, payload: Any, throwing: bool = False) -> None:
        # Record this process as the one executing for the length of
        # the step (the tracer's open-span stacks are per process), and
        # restore the outer record after it, so a nested step leaves
        # its caller's intact.
        sim = self.sim
        outer = sim.active_process
        sim.active_process = self
        try:
            if throwing:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            sim.active_process = outer
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            sim.active_process = outer
            self._crash(exc)
            return
        sim.active_process = outer
        if target.__class__ is float:
            # A plain sleep: the entry is pushed exactly where a
            # Timeout's would be, with the same (time, priority, seq),
            # and its dispatch resumes the process directly.
            if target < sim.now:
                self._advance(ValueError(
                    "sleep deadline %r is before now (%r)" % (target, sim.now)),
                    throwing=True)
                return
            sim._seq = seq = sim._seq + 1
            self._sleep = seq
            heappush(sim._heap, (target, NORMAL, seq, self._wake, (seq,)))
            return
        if target.__class__ is not Timeout and not isinstance(target, Event):
            exc = TypeError(
                "process %r yielded %r; processes must yield Event objects "
                "(Timeout, Event, Process, resource requests, ...) or a float "
                "deadline" % (self.name, target)
            )
            self._generator.close()
            self._crash(exc)
            return
        if target.sim is not sim:
            self._generator.close()
            self._crash(SimulationError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        # Inlined Event.add_callback: this runs once per process step and
        # the attribute dance is measurable at workload scale.
        callbacks = target.callbacks
        if callbacks is None:
            sim.schedule_call(0.0, self._event_done, target, priority=URGENT)
        else:
            callbacks.append(self._event_done)

    def _crash(self, exc: BaseException) -> None:
        if self.callbacks:
            # Someone is waiting on us: propagate as a failed event.
            self.fail(exc)
        else:
            # Nobody listening — surface the bug loudly.
            self._triggered = True
            self._ok = False
            self._value = exc
            raise exc


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start ``generator`` as a new simulation process."""
    return Process(sim, generator, name=name)
