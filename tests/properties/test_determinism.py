"""Determinism properties: identical runs are identical, always.

Every calibration number in this repository is a single measurement of
a deterministic simulation; these properties guard that determinism
across randomized workload shapes.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.pingpong import STRATEGIES, vmmc_pingpong
from repro.libs.nx import VARIANTS, nx_world
from repro.testbed import make_system

PAGE = 4096


@given(
    st.sampled_from(sorted(STRATEGIES)),
    st.integers(min_value=1, max_value=512).map(lambda n: n * 4),
)
@settings(max_examples=15, deadline=None)
def test_raw_pingpong_is_reproducible(strategy_name, size):
    first = vmmc_pingpong(STRATEGIES[strategy_name], size, iterations=3)
    second = vmmc_pingpong(STRATEGIES[strategy_name], size, iterations=3)
    assert first.one_way_latency_us == second.one_way_latency_us


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3000)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=10, deadline=None)
def test_nx_workload_end_times_reproducible(plan):
    def run():
        system = make_system()

        def sender(nx):
            src = nx.proc.space.mmap(PAGE)
            for mtype, size in plan:
                yield from nx.csend(mtype, src, size, to=1)

        def receiver(nx):
            dst = nx.proc.space.mmap(PAGE)
            for _mtype, _size in plan:
                yield from nx.crecv(-1, dst, PAGE)
            return nx.proc.sim.now

        handles = nx_world(system, [sender, receiver],
                           variant=VARIANTS["DU-1copy"])
        system.run_processes(handles)
        return handles[1].value

    assert run() == run()


def test_traced_workload_span_lists_repeat_in_one_process():
    """Two identical traced runs in one interpreter record identical
    spans, packet numbers included: the machine, not the module, owns
    the packet counter, so the second run's first packet is ``#1`` too."""
    from repro.workload import WorkloadSpec, run_workload

    spec = WorkloadSpec(seed=1, transport="srpc", arrival="open",
                        load=6000.0, concurrency=4, requests=10, keys=50,
                        read_fraction=0.8, trace=True)

    def spans():
        return [(s.sid, s.parent, s.category, s.name, s.track, s.start, s.end)
                for s in run_workload(spec).spans]

    first = spans()
    assert any(name.startswith("pkt #1 ") for _, _, _, name, _, _, _ in first)
    assert spans() == first
