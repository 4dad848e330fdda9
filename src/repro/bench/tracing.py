"""Traced one-word transfers: spans cross-checked against the budget.

Runs the Figure 3 methodology's one-word transfer (AU or DU) with the
machine tracer enabled and builds a *measured*
:class:`~repro.analysis.LatencyBudget` from its spans next to the
analytic one from :mod:`repro.analysis`.  The measured budget is
:func:`repro.obs.assemble.partition` of the journey — the sender's
store or vmmc send to the receiver's poll detect — with one row per
owning span: the CPU and VMMC spans as members, the NIC, mesh and bus
spans as the hardware overlay.  In the uncontended single-transfer
case the two budgets agree exactly; the acceptance bar is 1%.

This is both the `python -m repro trace` implementation and the proof
obligation of the observability layer: if a future change makes the
simulated datapath drift from the documented cost model, the agreement
check fails before the paper figures silently move.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis import LatencyBudget, Stage, au_word_budget, du_word_budget
from ..hardware.config import CacheMode, MachineConfig
from ..kernel.system import ShrimpSystem
from ..obs.assemble import classify, partition
from ..sim import Span, Tracer, chrome_trace_json, write_chrome_trace
from ..testbed import Rendezvous
from ..vmmc import attach

__all__ = ["TracedTransfer", "trace_one_word"]


@dataclass
class TracedTransfer:
    """Everything the trace CLI reports about one traced transfer.

    Holds the live tracer (for export) plus the measured and analytic
    budgets.  ``agreement_error`` is the relative difference of the two
    totals — the acceptance criterion bounds it at 1%.
    """

    mode: str
    cache_mode: CacheMode
    system: ShrimpSystem
    measured: LatencyBudget
    analytic: LatencyBudget

    @property
    def tracer(self) -> Tracer:
        """The machine tracer holding the run's spans and records."""
        return self.system.machine.tracer

    @property
    def agreement_error(self) -> float:
        """Relative |measured - analytic| / analytic of the totals."""
        return abs(self.measured.total - self.analytic.total) / self.analytic.total

    def chrome_json(self, indent: Optional[int] = None) -> str:
        """The run as Chrome trace_event JSON."""
        return chrome_trace_json(self.tracer, indent=indent)

    def write_chrome_trace(self, path) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        return write_chrome_trace(self.tracer, path)

    def utilization_report(self) -> str:
        """The machine's per-resource utilization table."""
        return self.system.machine.utilization_report(min_count=1)

    def report(self) -> str:
        """Measured and analytic budgets side by side, plus the verdict."""
        lines = [self.measured.report(), "", self.analytic.report(), ""]
        lines.append(
            "agreement: measured %.4f us vs analytic %.4f us (%.3f%% apart)"
            % (self.measured.total, self.analytic.total,
               100.0 * self.agreement_error)
        )
        return "\n".join(lines)


def trace_one_word(
    mode: str = "au",
    cache_mode: CacheMode = CacheMode.WRITE_THROUGH,
    config: Optional[MachineConfig] = None,
) -> TracedTransfer:
    """Trace one word from node 0 to node 1, budgeted span by span.

    ``mode`` is ``"au"`` (snooped store through a non-combining binding,
    the 4.75/3.7 us path) or ``"du"`` (blocking deliberate update, the
    7.6 us path).  Setup traffic (export/import/bind handshakes) is
    cleared from the tracer before the measured transfer so the exported
    trace shows exactly one journey.
    """
    if mode not in ("au", "du"):
        raise ValueError("mode must be 'au' or 'du', not %r" % mode)
    automatic = mode == "au"
    system = ShrimpSystem(config, trace=True)
    tracer = system.machine.tracer
    rdv = Rendezvous(system)
    page_size = system.config.page_size
    word = struct.pack("<I", 0x5EED5EED)

    def receiver(proc):
        ep = attach(system, proc)
        recv_vaddr = ep.alloc_buffer(page_size, cache_mode=cache_mode)
        recv = yield from ep.export(recv_vaddr, page_size)
        rdv.put("export", (proc.node.node_id, recv.export_id))
        yield rdv.get("armed")
        yield from proc.poll(recv_vaddr, 4, lambda b: b == word)

    def sender(proc):
        ep = attach(system, proc)
        peer_node, peer_export = yield rdv.get("export")
        imported = yield from ep.import_buffer(peer_node, peer_export)
        if automatic:
            src = ep.alloc_buffer(page_size, cache_mode=cache_mode)
            # Non-combining binding: the latency-optimal single-word
            # configuration (a combining page would wait out its timer).
            yield from ep.bind(src, imported, combining=False)
        else:
            src = proc.space.mmap(page_size, cache_mode=cache_mode)
            proc.poke(src, word)
        rdv.put("armed", True)
        # Give the receiver's first (missing) poll check a moment to
        # complete, then drop all setup spans: the measured journey is
        # the only traffic left in the trace.
        yield proc.sim.timeout(2.0)
        tracer.clear()
        if automatic:
            yield from proc.write(src, word)
        else:
            yield from ep.send(imported, src, 4)

    recv_proc = system.spawn(1, receiver, name="trace-recv")
    send_proc = system.spawn(0, sender, name="trace-send")
    system.run_processes([recv_proc, send_proc])

    members = [s for s in tracer.spans if classify(s.category) == "vmmc"]
    # The sender's and the receiver's CPU spans never overlap, so no
    # slice has two covering members and depth never decides.
    segments, _ = partition(min(s.start for s in members),
                            max(s.end for s in members),
                            members, tracer.spans, depth=lambda span: 0)
    rows: Dict[Span, float] = {}
    for seg in segments:
        if seg.owner is None:
            raise RuntimeError(
                "no span covers %.4f-%.4f us of the %s journey: datapath "
                "instrumentation drifted" % (seg.start, seg.end, mode))
        rows[seg.owner] = rows.get(seg.owner, 0.0) + seg.duration_us
    measured = LatencyBudget(
        "%s one-word transfer, traced (%s)" % (mode.upper(), cache_mode.value),
        [Stage("%s on %s" % (span.category, span.track), us)
         for span, us in rows.items()],
    )
    builder = au_word_budget if automatic else du_word_budget
    analytic = builder(config=system.config, cache_mode=cache_mode, hops=1)
    return TracedTransfer(
        mode=mode,
        cache_mode=cache_mode,
        system=system,
        measured=measured,
        analytic=analytic,
    )
