"""Client-side adaptive backpressure for open-loop workloads.

An open-loop generator keeps offering load no matter what the service
says — that is the point of the open-loop model, and exactly what makes
it lethal past the knee: rejected work is re-offered as fresh work and
the arrival rate never relents.  :class:`BackpressureGovernor` is the
cooperative half of overload control (docs/OVERLOAD.md): it watches the
recent rejection fraction and stretches the inter-arrival gap
multiplicatively while the service is shedding, then decays back to
the nominal rate once acceptances dominate again — AIMD in spirit,
multiplicative in both directions so recovery is fast but bounded.

Deterministic on purpose: windows are *count*-based (every
:data:`WINDOW` outcomes, not every N microseconds), so the governor's
decisions depend only on the sequence of accept/reject outcomes the
simulation already fixed, never on wall-clock sampling.
"""

from __future__ import annotations

__all__ = ["BackpressureGovernor"]

#: Outcomes per decision window.
WINDOW = 50
#: Rejection fraction above which the governor slows down.
TARGET = 0.05
#: Slow-down factor multipliers per window, and the slow-down cap.
GROW = 1.25
DECAY = 0.9
MAX_SLOWDOWN = 8.0


class BackpressureGovernor:
    """Multiplicative slow-down of an open-loop arrival process.

    ``note(rejected)`` records one request outcome.  Every
    :data:`WINDOW` outcomes the rejection fraction is compared with
    :data:`TARGET`: above it the slow-down factor grows by :data:`GROW`
    (capped at :data:`MAX_SLOWDOWN`); below ``TARGET / 2`` it decays by
    :data:`DECAY` (floored at 1.0 — the governor never pushes *faster*
    than nominal); the band between holds steady.  The hysteresis
    matters: under sustained overload the doors keep shedding a trickle
    even once the rate is trimmed to capacity, and a governor that
    releases on any below-target window re-grows the backlog it just
    drained — while one that releases only on perfectly clean windows
    stays throttled forever on burst noise.  ``gap_scale()`` is the
    factor the arrival process multiplies its next inter-arrival gap by.
    """

    def __init__(self):
        self.slowdown = 1.0
        self.peak = 1.0
        self.adjustments = 0
        self._count = 0
        self._rejected = 0

    def note(self, rejected: bool) -> None:
        """Record one request outcome; fold the window when it fills."""
        self._count += 1
        if rejected:
            self._rejected += 1
        if self._count < WINDOW:
            return
        frac = self._rejected / self._count
        if frac > TARGET:
            self.slowdown = min(self.slowdown * GROW, MAX_SLOWDOWN)
            self.adjustments += 1
        elif frac <= TARGET / 2.0 and self.slowdown > 1.0:
            self.slowdown = max(self.slowdown * DECAY, 1.0)
            self.adjustments += 1
        self.peak = max(self.peak, self.slowdown)
        self._count = 0
        self._rejected = 0

    def gap_scale(self) -> float:
        """The factor to stretch the next inter-arrival gap by."""
        return self.slowdown
