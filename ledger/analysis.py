"""Pure functions the ledger applies to what its child processes measured.

Nothing here imports :mod:`repro`, so the rules can be unit-tested on
synthetic inputs and the parent process stays a plain orchestrator.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Knee rule: a grid rate passes when its p99 is within the latency
#: limit and the service kept up with what was offered.
P99_LIMIT_US = 500.0
MIN_ACHIEVED = 0.90

#: The host self-time groups, most specific source-path prefix first.
#: Paths are relative to the ``repro`` package; anything outside it
#: (the standard library, builtins, the ledger itself) is ``other``.
HOST_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("hardware/nic/", "hardware.nic"),
    ("hardware/router/", "hardware.router"),
    ("hardware/", "hardware"),
    ("kernel/", "kernel"),
    ("vmmc/", "vmmc"),
    ("libs/shrimp_rpc/", "libs.shrimp_rpc"),
    ("libs/sockets/", "libs.sockets"),
    ("libs/nx/", "libs.nx"),
    ("libs/rpc/", "libs.rpc"),
    ("libs/", "libs"),
    ("apps/kv/", "apps.kv"),
    ("workload/", "workload"),
    ("obs/", "obs"),
)
HOST_SHARE_NAMES: Tuple[str, ...] = tuple(
    name for _, name in HOST_GROUPS) + ("other",)

#: The paper's numbers the model is held to, keyed by the ladder value
#: each is compared with.  The first four are the hardware anchors
#: docs/CALIBRATION.md tunes the model on; the other six were not tuned
#: against, so they are the held-out check.
PAPER_ANCHORS: Tuple[Tuple[str, float], ...] = (
    ("au_word_wt_us", 4.75),
    ("au_word_uncached_us", 3.7),
    ("du_word_us", 7.6),
    ("du_0copy_peak_mb_s", 23.0),
)
PAPER_HELDOUT: Tuple[Tuple[str, float], ...] = (
    ("vrpc_null_rtt_us", 29.0),
    ("srpc_null_inout_rtt_us", 9.5),
    ("nx_overhead_us", 6.0),
    ("ttcp_7k_mb_s", 8.6),
    ("micro_7k_mb_s", 9.8),
    ("ttcp_70b_mb_s", 1.3),
)


# -- capacity knee -----------------------------------------------------------

def point_passes(point: Mapping[str, float]) -> bool:
    """Whether one sweep point meets the latency limit without backlog."""
    return (point["p99_us"] <= P99_LIMIT_US
            and point["achieved"] >= MIN_ACHIEVED)


def find_knee(points: Sequence[Mapping[str, float]],
              grid: Sequence[float]) -> Tuple[Optional[float], bool]:
    """The knee of a sweep, and whether the grid censors it.

    The knee is the highest grid rate at which that rate and every lower
    one pass.  ``points`` holds the measured rates in grid order; a scan
    may stop at its first failure, since no higher rate can count.  The
    knee is censored when the lowest rate already fails (it lies below
    the grid) or when no measured rate fails and the top of the grid
    was reached (it lies above).  A censored knee is returned as the
    bound it was found against, ``None`` below the grid.
    """
    knee = None
    for point in points:
        if not point_passes(point):
            return knee, knee is None
        knee = point["rate"]
    return knee, True if knee is None else knee >= max(grid)


# -- utilization table -------------------------------------------------------

def parse_utilization(text: str) -> List[dict]:
    """Rows of a ``Machine.utilization_report()`` table.

    Each row is ``{"name", "kind", "busy_us", "ops", "bytes",
    "wait_us", "depth_max"}``; a column the table prints as ``-`` is
    ``None``.
    """
    rows = []
    lines = [line for line in text.splitlines() if line.strip()]
    header = next((i for i, line in enumerate(lines)
                   if line.split()[:2] == ["resource", "kind"]), None)
    if header is None:
        raise ValueError("no utilization table header")
    for line in lines[header + 1:]:
        cells = line.split()
        if len(cells) != 8:
            raise ValueError("malformed utilization row: %r" % line)
        name, kind, busy, _util, ops, nbytes, wait, depth = cells
        rows.append({
            "name": name,
            "kind": kind,
            "busy_us": None if busy == "-" else float(busy),
            "ops": int(ops),
            "bytes": None if nbytes == "-" else int(nbytes),
            "wait_us": None if wait == "-" else float(wait),
            "depth_max": None if depth == "-" else int(depth.split("/")[1]),
        })
    return rows


def _resource_class(row: dict) -> Optional[str]:
    if row["kind"] == "link":
        return "mesh"
    for prefix, cls in (("arbiter-", "arbiter"), ("eisa-", "eisa"),
                        ("du-engine-", "du_engine"),
                        ("outgoing-fifo-", "fifo"),
                        ("wl-dispatch-q", "dispatch")):
        if row["name"].startswith(prefix):
            return cls
    return None


def hardware_metrics(rows: Iterable[dict], completed: int) -> Dict[str, float]:
    """Per-request busy time, mean wait and bytes per hardware class,
    plus the high-water marks of the NIC FIFOs and the dispatch queue."""
    busy: Dict[str, float] = {}
    nbytes: Dict[str, int] = {}
    wait_total: Dict[str, float] = {}
    ops: Dict[str, int] = {}
    depth: Dict[str, int] = {}
    for row in rows:
        cls = _resource_class(row)
        if cls is None:
            continue
        busy[cls] = busy.get(cls, 0.0) + (row["busy_us"] or 0.0)
        nbytes[cls] = nbytes.get(cls, 0) + (row["bytes"] or 0)
        if row["wait_us"] is not None:
            wait_total[cls] = (wait_total.get(cls, 0.0)
                               + row["wait_us"] * row["ops"])
            ops[cls] = ops.get(cls, 0) + row["ops"]
        if row["depth_max"] is not None:
            depth[cls] = max(depth.get(cls, 0), row["depth_max"])
    per = float(max(completed, 1))

    def mean_wait(cls: str) -> float:
        return wait_total.get(cls, 0.0) / ops[cls] if ops.get(cls) else 0.0

    return {
        "hardware.arbiter.busy_us_per_req": busy.get("arbiter", 0.0) / per,
        "hardware.arbiter.wait_us": mean_wait("arbiter"),
        "hardware.eisa.busy_us_per_req": busy.get("eisa", 0.0) / per,
        "hardware.eisa.wait_us": mean_wait("eisa"),
        "hardware.eisa.bytes_per_req": nbytes.get("eisa", 0) / per,
        "hardware.du_engine.busy_us_per_req": busy.get("du_engine", 0.0) / per,
        "hardware.mesh.busy_us_per_req": busy.get("mesh", 0.0) / per,
        "hardware.mesh.bytes_per_req": nbytes.get("mesh", 0) / per,
        "hardware.fifo.depth_max": float(depth.get("fifo", 0)),
        "workload.dispatch_depth_max": float(depth.get("dispatch", 0)),
    }


_COUNTER = re.compile(r"(\w+)=(\d+)")


def kv_counters(text: str) -> Dict[str, int]:
    """Service-side counters from a run report's ``service:`` block.

    ``gets`` sums the per-node server GETs, ``repl_applied`` is the
    service total, ``onesided_hits`` comes from the ``mitigation:``
    line (0 when the run had no mitigation enabled).
    """
    counters = {"gets": 0, "repl_applied": 0, "onesided_hits": 0}
    for line in text.splitlines():
        fields = dict(_COUNTER.findall(line))
        stripped = line.strip()
        if stripped.startswith("service:"):
            counters["repl_applied"] = int(fields["repl_applied_total"])
        elif stripped.startswith("mitigation:"):
            counters["onesided_hits"] = int(fields["onesided_hits"])
        elif re.match(r"n\d+: ", stripped):
            counters["gets"] += int(fields["gets"])
    return counters


# -- host self-time shares ---------------------------------------------------

def host_group(filename: str) -> str:
    """The host-share group of one profiled source file."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rel = path[at + len(marker):]
    for prefix, name in HOST_GROUPS:
        if rel.startswith(prefix):
            return name
    return "other"


def host_shares(self_times: Mapping[str, float]) -> Dict[str, float]:
    """Fold per-file self time into the :data:`HOST_SHARE_NAMES` shares.

    ``self_times`` maps a source filename to its functions' summed self
    time.  The shares sum to 1 (all zero only for an empty profile).
    """
    totals = {name: 0.0 for name in HOST_SHARE_NAMES}
    for filename, seconds in self_times.items():
        totals[host_group(filename)] += seconds
    grand = sum(totals.values())
    if grand <= 0.0:
        return totals
    return {name: seconds / grand for name, seconds in totals.items()}


# -- fidelity against the paper ----------------------------------------------

def paper_errors(values: Mapping[str, float]) -> Dict[str, float]:
    """Mean |measured/paper - 1| in percent: all, anchors, held out.

    ``values`` are the ladder scalars the child measured, with
    ``nx_overhead_us`` already derived (NX small message minus raw
    VMMC at the same size and strategy).
    """
    def mean_err(pairs):
        return 100.0 * statistics.fmean(
            abs(values[key] / paper - 1.0) for key, paper in pairs)

    return {
        "paper_err_pct": mean_err(PAPER_ANCHORS + PAPER_HELDOUT),
        "paper_err_pct.anchors": mean_err(PAPER_ANCHORS),
        "paper_err_pct.heldout": mean_err(PAPER_HELDOUT),
    }


# -- sample statistics -------------------------------------------------------

def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3
