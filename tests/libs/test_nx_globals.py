"""Tests for the NX global operations (gisum/gdsum/gihigh/.../gcol)."""

import pytest

from repro.hardware.config import MachineConfig
from repro.libs.collectives import gather, reduce_int
from repro.libs.nx import VARIANTS, nx_world
from repro.libs.nx.globals import gcol, gdhigh, gdlow, gdsum, gihigh, gilow, gisum
from repro.testbed import make_system

PAGE = 4096


def run_world(programs, config=None):
    system = make_system(config)
    handles = nx_world(system, programs, variant=VARIANTS["AU-1copy"])
    system.run_processes(handles)
    return [h.value for h in handles]


def test_gisum_every_rank_gets_total():
    def program(nx):
        result = yield from gisum(nx, [nx.mynode() + 1, 100])
        return result

    results = run_world([program] * 4)
    assert all(r == [1 + 2 + 3 + 4, 400] for r in results)


def test_an_empty_global_sum_is_empty_everywhere():
    def program(nx):
        result = yield from gisum(nx, [])
        return result

    assert run_world([program] * 4) == [[], [], [], []]


def test_gdsum_doubles():
    def program(nx):
        result = yield from gdsum(nx, [0.5 * (nx.mynode() + 1)])
        return result

    results = run_world([program] * 4)
    assert all(r == [pytest.approx(5.0)] for r in results)


def test_gihigh_and_gilow():
    def program(nx):
        high = yield from gihigh(nx, [nx.mynode() * 7, -nx.mynode()])
        low = yield from gilow(nx, [nx.mynode() * 7, -nx.mynode()])
        return high, low

    results = run_world([program] * 4)
    assert all(r == ([21, 0], [0, -3]) for r in results)


def test_gdhigh_and_gdlow():
    def program(nx):
        high = yield from gdhigh(nx, [float(nx.mynode())])
        low = yield from gdlow(nx, [float(nx.mynode())])
        return high[0], low[0]

    results = run_world([program] * 4)
    assert all(r == (3.0, 0.0) for r in results)


def test_gisum_on_sixteen_nodes():
    def program(nx):
        result = yield from gisum(nx, [1])
        return result[0]

    results = run_world([program] * 16, config=MachineConfig.sixteen_node())
    assert results == [16] * 16


def test_gcol_concatenates_in_rank_order():
    def program(nx):
        buf = nx.proc.space.mmap(PAGE)
        nx.proc.poke(buf, bytes([0xA0 + nx.mynode()]) * 8)
        result = yield from gcol(nx, buf, 8)
        return result

    results = run_world([program] * 4)
    expected = b"".join(bytes([0xA0 + r]) * 8 for r in range(4))
    assert all(r == expected for r in results)


def test_negative_values_and_large_ints():
    def program(nx):
        result = yield from gisum(nx, [-(1 << 40), 1 << 40])
        return result

    results = run_world([program] * 4)
    assert all(r == [-(1 << 42), 1 << 42] for r in results)


def test_global_ops_leave_the_page_table_as_they_found_it():
    """Each call maps a scratch page and unmaps it on the way out, so
    repeated global ops map nothing that outlives them."""
    def program(nx):
        table = nx.proc.space.page_table
        buf = nx.proc.space.mmap(PAGE)
        before = len(table)
        for _ in range(10):
            yield from gisum(nx, [nx.mynode()])
            yield from gdsum(nx, [0.5])
            yield from reduce_int(nx, nx.mynode(), max)
            yield from gcol(nx, buf, 8)
            yield from gather(nx, buf, 8)
        return before, len(table)

    for before, after in run_world([program] * 4):
        assert after == before
