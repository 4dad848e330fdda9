"""Tests for the CLI entry point and the config-sweep utility."""

import pytest

from repro.__main__ import main
from repro.bench.sweeps import au_word_latency, du_0copy_bandwidth, sweep_config
from repro.hardware.config import MachineConfig
from repro.workload import WorkloadSpec, record_stream, save_stream


class TestCli:
    def test_budget_command(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert "AU one-word transfer" in out
        assert "DU one-word transfer" in out
        assert "TOTAL" in out

    def test_scalars_command(self, capsys):
        assert main(["scalars"]) == 0
        out = capsys.readouterr().out
        assert "4.75" in out            # the paper column
        assert "VRPC null round trip" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure-nine"])

    def test_set_refuses_non_scalar_fields(self, tmp_path):
        """``--set`` coerces by the field's own type: a tuple field is
        refused with a message, not passed on as an int."""
        path = str(tmp_path / "stream.json")
        save_stream(record_stream(WorkloadSpec(requests=20)), path)
        with pytest.raises(SystemExit,
                           match="value_sizes cannot be set from the "
                                 "command line"):
            main(["replay", "--stream", path, "--set", "value_sizes=32"])


class TestSweeps:
    def test_sweep_varies_only_the_named_field(self):
        results = sweep_config("incoming_dma_setup", [0.6, 1.2], au_word_latency)
        (v0, lat0), (v1, lat1) = results
        assert (v0, v1) == (0.6, 1.2)
        # The latency difference equals the setup difference exactly
        # (one packet on the path).
        assert lat1 - lat0 == pytest.approx(0.6, abs=0.01)

    def test_sweep_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            sweep_config("warp_drive", [1], au_word_latency)

    def test_sweep_custom_base(self):
        base = MachineConfig(router_hop_latency=1.5)
        results = sweep_config("incoming_dma_setup", [1.2], au_word_latency, base=base)
        default = sweep_config("incoming_dma_setup", [1.2], au_word_latency)
        # The custom base's slower routers show up in the measurement.
        assert results[0][1] > default[0][1]

    def test_bandwidth_metric_is_sane(self):
        bandwidth = du_0copy_bandwidth(MachineConfig.shrimp_prototype())
        assert 20.0 < bandwidth < 24.0
