"""The paper table holds the only copy of the paper's numbers in the
program; the layer ledger keeps the one other copy, for its fidelity
metric (``paper_err_pct``).  These tests pin the two equal, so the
ledger scores the model against the same numbers the table prints.
"""

from ledger.analysis import PAPER_ANCHORS, PAPER_HELDOUT

from repro.bench.figures import PAPER, PAPER_TABLE


def test_ledger_paper_values_equal_the_table():
    ledger = dict(PAPER_ANCHORS + PAPER_HELDOUT)
    assert len(ledger) == 10
    assert {key: PAPER[key] for key in ledger} == ledger


def test_the_table_opens_with_the_ledger_anchors():
    anchors = [key for key, _ in PAPER_ANCHORS]
    assert [key for key, _, _ in PAPER_TABLE[:len(anchors)]] == anchors
