"""Acceptance: differential attribution on a paired one-sided replay.

ISSUE 10's headline criterion — `repro diff` on a paired one-sided
`--ab` replay attributes the latency delta to stages and closes
against the measured end-to-end delta within 5% — plus the CLI
surfaces (`profile`, `diff --stream`, `diff --bench`) that expose it.
"""

import functools

from repro.__main__ import main
from repro.bench.attribution import attribute_pair
from repro.obs import PROFILE_STAGES
from repro.workload import WorkloadSpec, record_stream


@functools.lru_cache(maxsize=None)
def onesided_attribution():
    """The acceptance pair: one recorded stream, replayed with the
    one-sided bypass as the only B-side change."""
    spec = WorkloadSpec(seed=11, transport="srpc", arrival="open",
                        load=60000.0, concurrency=8, requests=120,
                        keys=200, read_fraction=0.9)
    stream = record_stream(spec)
    from dataclasses import replace
    return attribute_pair(spec, replace(spec, onesided_reads=True),
                          stream=stream, label="onesided_reads=true")


class TestAcceptance:
    def test_closure_within_five_percent(self):
        result = onesided_attribution()
        assert result.diff.closure_error <= 0.05, result.diff.report()
        assert result.ok

    def test_stage_deltas_sum_to_the_end_to_end_delta(self):
        diff = onesided_attribution().diff
        attributed = sum(s.delta_us for s in diff.stages)
        assert abs(attributed - diff.attributed_delta_us) < 1e-9
        # Conservation against the measured delta, the 5% gate's
        # underlying property.
        tolerance = 0.05 * max(abs(diff.measured_delta_us), 1.0)
        assert abs(attributed - diff.measured_delta_us) <= tolerance

    def test_paired_replay_sees_identical_offered_traffic(self):
        result = onesided_attribution()
        assert result.diff.a_requests == result.diff.b_requests == 120

    def test_bypass_moves_nic_and_cpu_down(self):
        # The bypass removes the server handler from the GET path:
        # NIC + CPU time per request must fall on the B side.
        diff = onesided_attribution().diff
        by_stage = {s.stage: s for s in diff.stages}
        assert by_stage["nic"].delta_us < 0.0
        assert by_stage["cpu"].delta_us < 0.0

    def test_profiles_audit_clean_on_both_sides(self):
        result = onesided_attribution()
        assert result.profile_a.problems == []
        assert result.profile_b.problems == []
        assert result.profile_a.conservation_error == 0.0
        assert result.profile_b.conservation_error == 0.0

    def test_report_names_both_spec_lines(self):
        result = onesided_attribution()
        text = result.report()
        assert "onesided=1" in text
        assert "closure:" in text
        for stage in PROFILE_STAGES:
            assert stage in text


class TestCli:
    def test_profile_command(self, capsys):
        assert main(["profile", "--seed", "7", "--requests", "40",
                     "--load", "20000"]) == 0
        out = capsys.readouterr().out
        assert "conservation error 0.0000%" in out
        assert "flame (folded causal stacks" in out

    def test_profile_writes_folded_stacks(self, capsys, tmp_path):
        folded = tmp_path / "out.folded"
        assert main(["profile", "--seed", "7", "--requests", "40",
                     "--load", "20000", "--folded", str(folded)]) == 0
        lines = folded.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0

    def test_diff_stream_command(self, capsys, tmp_path):
        stream = tmp_path / "stream.json"
        assert main(["record", "--out", str(stream), "--seed", "11",
                     "--requests", "60", "--load", "40000"]) == 0
        capsys.readouterr()
        assert main(["diff", "--stream", str(stream), "--ab",
                     "onesided_reads=true"]) == 0
        out = capsys.readouterr().out
        assert "stage attribution" in out
        assert "closure:" in out
        assert "[OK]" in out

    def test_diff_needs_a_mode(self, capsys):
        assert main(["diff"]) == 2
        assert "--bench" in capsys.readouterr().out

    def test_diff_grouped_b_side_is_gated(self, capsys, tmp_path):
        # A pipelined B side folds several requests into one root
        # span; the CLI must say why attribution is skipped rather
        # than emit a table that cannot close.
        stream = tmp_path / "stream.json"
        assert main(["record", "--out", str(stream), "--seed", "5",
                     "--requests", "40", "--load", "40000"]) == 0
        capsys.readouterr()
        assert main(["replay", "--stream", str(stream), "--ab",
                     "pipeline_window=4"]) == 0
        out = capsys.readouterr().out
        assert "stage attribution skipped: grouped dispatch" in out

    def test_diff_bench_command(self, capsys):
        assert main(["diff", "--bench", "BENCH_capacity.json",
                     "BENCH_capacity.json"]) == 0
        out = capsys.readouterr().out
        assert "bench diff: repro.bench.capacity/v1" in out
        assert "+0.0%" in out

    def test_diff_bench_rejects_invalid_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"nope/v9\"}\n")
        assert main(["diff", "--bench", str(bad), str(bad)]) == 1
        assert "cannot load bench artifact" in capsys.readouterr().out
