"""Unit tests for MachineConfig validation and cost helpers."""

import pytest

from repro.hardware import CacheMode, MachineConfig


def test_prototype_defaults():
    config = MachineConfig.shrimp_prototype()
    assert config.n_nodes == 4
    assert config.mesh_width * config.mesh_height >= 4
    assert config.page_size == 4096
    assert config.memory_bytes == 40 * 1024 * 1024


def test_sixteen_node_variant():
    config = MachineConfig.sixteen_node()
    assert config.n_nodes == 16
    assert config.mesh_width == 4


def test_mesh_too_small_rejected():
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=8, mesh_width=2, mesh_height=2)


def test_node_position_row_major():
    config = MachineConfig.shrimp_prototype()
    assert config.node_position(0) == (0, 0)
    assert config.node_position(1) == (1, 0)
    assert config.node_position(2) == (0, 1)
    assert config.node_position(3) == (1, 1)
    with pytest.raises(ValueError):
        config.node_position(4)


def test_write_cost_scales_linearly():
    config = MachineConfig.shrimp_prototype()
    one = config.write_cost(CacheMode.WRITE_THROUGH, 4)
    big = config.write_cost(CacheMode.WRITE_THROUGH, 4096)
    assert big > one
    # per-byte rate should dominate for big transfers:
    assert big == pytest.approx(
        config.wt_write_base + 4096 * config.wt_write_per_byte
    )


def test_uncached_single_word_write_cheaper_than_write_through():
    """The paper measured one-word AU latency 3.7 us uncached vs 4.75 us
    write-through; the per-op costs must preserve that direction."""
    config = MachineConfig.shrimp_prototype()
    assert config.write_cost(CacheMode.UNCACHED, 4) < config.write_cost(
        CacheMode.WRITE_THROUGH, 4
    )
    assert config.read_cost(CacheMode.UNCACHED, 4) < config.read_cost(
        CacheMode.WRITE_THROUGH, 4
    )


def test_uncached_streaming_slower_than_cached():
    """Bulk copies are worse uncached (word-at-a-time bus transactions)."""
    config = MachineConfig.shrimp_prototype()
    assert config.read_cost(CacheMode.UNCACHED, 8192) > config.read_cost(
        CacheMode.WRITE_BACK, 8192
    )


def test_copy_cost_is_read_plus_write():
    config = MachineConfig.shrimp_prototype()
    n = 1024
    assert config.copy_cost(CacheMode.WRITE_BACK, CacheMode.WRITE_THROUGH, n) == (
        config.read_cost(CacheMode.WRITE_BACK, n)
        + config.write_cost(CacheMode.WRITE_THROUGH, n)
    )


def test_au_copy_rate_caps_near_twenty_mb_per_sec():
    """AU bandwidth is limited by the sender's copy; Figure 3 puts the
    asymptote near 20 MB/s."""
    config = MachineConfig.shrimp_prototype()
    n = 1 << 20
    rate = n / config.copy_cost(CacheMode.WRITE_BACK, CacheMode.WRITE_THROUGH, n)
    assert 17.0 < rate < 23.0


def test_invalid_page_size_rejected():
    with pytest.raises(ValueError):
        MachineConfig(page_size=4095)


def test_invalid_packet_payload_rejected():
    with pytest.raises(ValueError):
        MachineConfig(max_packet_payload=0)
