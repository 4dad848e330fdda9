"""``ledger compare``: verdicts between two sets of ledger runs.

Each side is a list of run files (``ledger run --out``); the i-th file
of one side pairs with the i-th of the other.  For every (workload,
metric) both sides carry, the verdict follows the choosing-metrics
rules:

* **improved** — the change wins at least 9 of every 10 pairs (ties
  count for neither), over at least 10 pairs, and its median beats the
  base median by more than the base's interquartile range;
* **unresolved** — the run-to-run spread (interquartile range over
  median, either side) is wider than the metric's bound, unless every
  run of the change reads better than every base run (then
  *unchanged*) or every one reads worse by more than the bound (then
  *regressed*);
* **regressed** — the median is worse than the base median by more
  than the bound;
* **unchanged** — otherwise.

A per-layer metric has no bound: it reads *unchanged* when the medians
differ by no more than the base's interquartile range (always so for a
simulated metric that repeats exactly) and *unresolved* otherwise,
unless the win rule above calls it improved or, mirrored, regressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .analysis import quartiles

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = (
    "improved", "unchanged", "regressed", "unresolved")

#: Pairs a gain (or an unbounded loss) needs, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    """One (workload, metric) comparison."""

    workload: str
    metric: str
    unit: str
    base: Sequence[float]
    head: Sequence[float]
    verdict: str

    @property
    def ratio(self) -> float:
        base = quartiles(self.base)[1]
        return quartiles(self.head)[1] / base if base else float("nan")


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = -1.0 if better == "lower" else 1.0
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    base_iqr = b3 - b1
    gain = sign * (hmed - bmed)          # > 0: the change reads better
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) < 0)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > base_iqr:
        return IMPROVED
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > base_iqr:
            return REGRESSED
        return UNCHANGED if abs(gain) <= base_iqr else UNRESOLVED
    worse = _relative(-gain, bmed)
    spread = max(_relative(base_iqr, bmed), _relative(h3 - h1, hmed))
    if spread > bound:
        if all(sign * (h - b) > 0 for b in base for h in head):
            return UNCHANGED
        if worse > bound and all(sign * (h - b) < 0
                                 for b in base for h in head):
            return REGRESSED
        return UNRESOLVED
    return REGRESSED if worse > bound else UNCHANGED


def _values(runs: Sequence[dict], workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs]


def compare(base_runs: Sequence[dict], head_runs: Sequence[dict],
            declared: dict) -> List[Row]:
    """Rows for every (workload, metric) present in every run file."""
    specs = {entry["name"]: entry for kind in ("end_to_end", "per_layer")
             for entry in declared[kind]}
    runs = list(base_runs) + list(head_runs)
    rows = []
    for workload in runs[0]["workloads"]:
        if not all(workload in run["workloads"] for run in runs):
            continue
        for name, spec in specs.items():
            if not all(name in run["workloads"][workload]["metrics"]
                       for run in runs):
                continue
            base = _values(base_runs, workload, name)
            head = _values(head_runs, workload, name)
            rows.append(Row(workload, name, spec["unit"], base, head,
                            verdict(base, head, spec["better"],
                                    spec.get("bound"))))
    return rows


def format_rows(rows: Sequence[Row]) -> List[str]:
    """The comparison as aligned text, one row per (workload, metric)."""
    table = [["workload", "metric", "base median [q1, q3]",
              "head median [q1, q3]", "head/base", "verdict"]]
    for row in rows:
        cells = []
        for side in (row.base, row.head):
            q1, med, q3 = quartiles(side)
            cells.append("%.6g [%.6g, %.6g] %s" % (med, q1, q3, row.unit))
        table.append([row.workload, row.metric] + cells
                     + ["%.4f (base %.6g)" % (row.ratio,
                                              quartiles(row.base)[1]),
                        row.verdict])
    widths = [max(len(line[col]) for line in table)
              for col in range(len(table[0]))]
    return ["  ".join(cell.ljust(width)
                      for cell, width in zip(line, widths)).rstrip()
            for line in table]
