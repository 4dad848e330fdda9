"""Exactness goldens for the hardened NX, sockets and VRPC protocols.

The fault sweeps only check that a hardened run ends "ok or typed
timeout"; these pin what each run did.  Every entry records the
outcome of each side, the final simulated time (``repr``, so a
one-ulp drift shows), the number of dispatched events and the fault
injector's report.  They cover the two-party runs at the sweep seeds,
large transfers (the NX scout path, multi-record socket sends) and two
multiplexed runs, a three-client VRPC ``svc_run`` and a four-rank NX
ring, each fault-free and under seeded plans.

Regenerate only for an intended timing change, and say so in the
commit::

    PYTHONPATH=src python -m tests.libs.test_hardened_goldens

A merged wake (two sleeps folded into one scheduler entry at the same
instant, docs/SIMULATOR.md) may move only the ``events=`` counts; any
other line that changes is a change in what the protocols did.
"""

import pathlib

import pytest

from tests.faults import harness

GOLDENS = pathlib.Path(__file__).parent / "goldens"

MULTIPLEXED_SEEDS = [None] + list(range(6))


def _entry(label, outcome, system):
    return "%s %s final t=%r events=%d\n%s" % (
        label, " ".join("%s=%s" % kv for kv in sorted(outcome.items())),
        system.sim.now, system.sim.events_executed, system.faults.report())


def render_nx():
    lines = []
    for variant, seeds, nbytes in (("AU-1copy", range(0, 10), 512),
                                   ("DU-2copy", range(10, 20), 512),
                                   ("DU-0copy", range(0, 6), 6000)):
        for seed in seeds:
            outcome, system = harness.run_nx_exchange(
                seed, variant=variant, nbytes=nbytes)
            lines.append(_entry("%s %dB seed %d" % (variant, nbytes, seed),
                                outcome, system))
    return "\n".join(lines)


def render_sockets():
    lines = []
    for variant, seeds, nbytes in (("AU-2copy", range(100, 110), 1024),
                                   ("DU-1copy", range(110, 120), 1024),
                                   ("DU-2copy", range(100, 106), 12000)):
        for seed in seeds:
            outcome, system = harness.run_socket_exchange(
                seed, variant=variant, nbytes=nbytes)
            lines.append(_entry("%s %dB seed %d" % (variant, nbytes, seed),
                                outcome, system))
    return "\n".join(lines)


def render_vrpc():
    lines = []
    for automatic, seeds in ((True, range(200, 209)),
                             (False, range(210, 219))):
        for seed in seeds:
            outcome, system = harness.run_vrpc_exchange(seed,
                                                        automatic=automatic)
            lines.append(_entry("%s seed %d" % ("AU" if automatic else "DU",
                                                seed), outcome, system))
    return "\n".join(lines)


def render_multiplexed():
    lines = []
    for seed in MULTIPLEXED_SEEDS:
        outcome, system = harness.run_vrpc_multiclient(seed)
        lines.append(_entry("vrpc-3-clients seed %s" % seed, outcome, system))
    for seed in MULTIPLEXED_SEEDS:
        outcome, system = harness.run_nx_ring(seed, variant="DU-1copy")
        lines.append(_entry("nx-ring-4 seed %s" % seed, outcome, system))
    return "\n".join(lines)


RENDERERS = {
    "nx_hardened": render_nx,
    "sockets_hardened": render_sockets,
    "vrpc_hardened": render_vrpc,
    "multiplexed_hardened": render_multiplexed,
}


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_hardened_runs_are_byte_identical(name):
    golden = (GOLDENS / ("%s.txt" % name)).read_text()
    assert RENDERERS[name]() + "\n" == golden


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, render in RENDERERS.items():
        (GOLDENS / ("%s.txt" % name)).write_text(render() + "\n")
        print("wrote", GOLDENS / ("%s.txt" % name))
