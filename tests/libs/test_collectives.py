"""Tests for software collectives (tree multicast, reduce, gather)."""

import pytest

from repro.libs.collectives import broadcast, broadcast_naive, gather, reduce, reduce_int
from repro.libs.nx import VARIANTS, nx_world
from repro.testbed import make_system

PAGE = 4096


def run_world(programs, **kwargs):
    system = make_system(**kwargs)
    handles = nx_world(system, programs, variant=VARIANTS["AU-1copy"])
    system.run_processes(handles)
    return system, [h.value for h in handles]


@pytest.mark.parametrize("bcast", [broadcast, broadcast_naive])
@pytest.mark.parametrize("root", [0, 2])
def test_broadcast_delivers_to_all(bcast, root):
    payload = b"broadcast payload." * 4

    def program(nx):
        buf = nx.proc.space.mmap(PAGE)
        if nx.mynode() == root:
            nx.proc.poke(buf, payload)
        yield from bcast(nx, buf, len(payload), root=root)
        return nx.proc.peek(buf, len(payload))

    _sys, results = run_world([program] * 4)
    assert all(r == payload for r in results)


def test_tree_broadcast_beats_naive_on_16_nodes():
    """The co-design claim: software multicast has acceptable
    performance — the tree finishes in O(log N) rounds."""
    from repro.hardware.config import MachineConfig

    payload = bytes(1024)
    times = {}
    for name, bcast in (("tree", broadcast), ("naive", broadcast_naive)):
        system = make_system(MachineConfig.sixteen_node())
        started = []
        finished = []

        def program(nx, bcast=bcast):
            buf = nx.proc.space.mmap(PAGE)
            if nx.mynode() == 0:
                nx.proc.poke(buf, payload)
            yield from nx.gsync()  # exclude connection setup from timing
            started.append(nx.proc.sim.now)
            yield from bcast(nx, buf, len(payload), root=0)
            finished.append(nx.proc.sim.now)

        handles = nx_world(system, [program] * 16, variant=VARIANTS["AU-1copy"])
        system.run_processes(handles)
        times[name] = max(finished) - min(started)
    assert times["tree"] < times["naive"]


def test_reduce_sum():
    def program(nx):
        result = yield from reduce_int(nx, (nx.mynode() + 1) * 10, lambda a, b: a + b)
        return result

    _sys, results = run_world([program] * 4)
    assert results[0] == 10 + 20 + 30 + 40
    assert results[1] is None and results[2] is None and results[3] is None


def test_reduce_max_nonzero_root():
    def program(nx):
        result = yield from reduce_int(nx, nx.mynode() * 7, max, root=3)
        return result

    _sys, results = run_world([program] * 4)
    assert results[3] == 21
    assert results[0] is None


def test_reduce_combines_buffers_toward_a_shifted_root():
    def program(nx):
        buf = nx.proc.space.mmap(3)
        nx.proc.poke(buf, bytes([1 << nx.mynode()]) * 3)
        result = yield from reduce(
            nx, buf, 3, lambda a, b: bytes(x | y for x, y in zip(a, b)),
            root=2)
        return result, nx.proc.peek(buf, 3)

    _sys, results = run_world([program] * 4)
    assert [r for r, _ in results] == [None, None, b"\x0f" * 3, None]
    assert results[2][1] == b"\x0f" * 3


@pytest.mark.parametrize("bcast", [broadcast, broadcast_naive])
@pytest.mark.parametrize("size,root", [(3, 1), (3, 2)])
def test_broadcast_non_power_of_two_world(bcast, size, root):
    """The binomial tree must terminate cleanly when the world size is
    not a power of two and the root is rank-shifted."""
    payload = b"npot payload " * 3

    def program(nx):
        buf = nx.proc.space.mmap(PAGE)
        if nx.mynode() == root:
            nx.proc.poke(buf, payload)
        yield from bcast(nx, buf, len(payload), root=root)
        return nx.proc.peek(buf, len(payload))

    _sys, results = run_world([program] * size)
    assert all(r == payload for r in results)


@pytest.mark.parametrize("size,root", [(3, 1), (3, 2), (4, 3)])
def test_reduce_non_power_of_two_world(size, root):
    def program(nx):
        result = yield from reduce_int(nx, (nx.mynode() + 1) * 5,
                                       lambda a, b: a + b, root=root)
        return result

    _sys, results = run_world([program] * size)
    expected = sum((i + 1) * 5 for i in range(size))
    for rank, value in enumerate(results):
        assert value == (expected if rank == root else None)


@pytest.mark.parametrize("size,root", [(3, 2), (4, 3)])
def test_gather_non_power_of_two_world_nonzero_root(size, root):
    def program(nx):
        buf = nx.proc.space.mmap(PAGE)
        nx.proc.poke(buf, bytes([nx.mynode() + 65]) * 8)
        result = yield from gather(nx, buf, 8, root=root)
        return result

    _sys, results = run_world([program] * size)
    assert results[root] == [bytes([i + 65]) * 8 for i in range(size)]
    for rank, value in enumerate(results):
        if rank != root:
            assert value is None


def test_gather_collects_per_rank_payloads():
    def program(nx):
        buf = nx.proc.space.mmap(PAGE)
        nx.proc.poke(buf, bytes([nx.mynode() + 1]) * 16)
        result = yield from gather(nx, buf, 16)
        return result

    _sys, results = run_world([program] * 4)
    assert results[0] == [bytes([i + 1]) * 16 for i in range(4)]
    assert results[1] is None
