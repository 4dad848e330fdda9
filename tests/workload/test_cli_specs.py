"""Pin every WorkloadSpec the CLI builds, invocation by invocation.

Each spec subcommand (``workload``, ``record``, ``capacity`` in all its
modes, ``antientropy``, ``explain``, ``profile``, ``replay`` and
``diff``) turns its flags into one or more :class:`WorkloadSpec`\\ s and
hands them to the engine, to a sweep or to the recorder.  This test
runs each invocation against a stand-in engine that records what it is
handed — the spec as ``asdict``, whether a stream came with it, and the
fault plan — and returns one canned report, so a whole capacity sweep
costs nothing.  The golden then fixes, flag for flag, what every
invocation builds.

The invocations are the subcommands bare, one per flag family with
every flag set off its default, and every ``python -m repro`` example
the docs show (the ones ``tests/test_docs_links.py`` collects).

Regenerate only for an intended CLI change, and say so in the commit::

    PYTHONPATH=src python -m tests.workload.test_cli_specs
"""

import contextlib
import io
import json
import pathlib
import shlex
from dataclasses import asdict

import pytest

import repro.workload as workload_pkg
from repro.__main__ import main
from repro.workload import WorkloadSpec, record_stream, run_workload
from repro.workload import engine, recorder
from tests.test_docs_links import DOC_FILES, _CLI, _PLACEHOLDER, \
    _build_parser

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "cli_specs.json"

#: The subcommands that build a WorkloadSpec.
SPEC_COMMANDS = ("workload", "record", "capacity", "antientropy", "explain",
                 "profile", "replay", "diff")

#: Stream artifacts the replay/diff invocations read (the docs' own
#: ``record`` examples, plus a closed-loop stream).
STREAMS = {
    "stream.json": WorkloadSpec(seed=11, requests=400, load=40000.0),
    "profile-stream.json": WorkloadSpec(seed=11, requests=300,
                                        load=60000.0),
    "closed-stream.json": WorkloadSpec(seed=3, arrival="closed",
                                       concurrency=3, requests=40,
                                       keys=30),
}

EXPLICIT = [
    # Each subcommand bare.
    "workload", "record", "capacity", "antientropy", "explain", "profile",
    "replay", "diff",
    # Every spec flag off its default.
    "workload --seed 5 --transport sockets --arrival closed --load 12345 "
    "--concurrency 3 --requests 50 --keys 77 --read-fraction 0.6 "
    "--scan-fraction 0.1 --dist uniform --zipf-s 0.9 --nodes 16 "
    "--replicas 3 --pipeline-window 2 --batch-keys 3 --cache-keys 5 "
    "--cache-ttl 250 --read-spread --onesided --cpu-slots 2 --cpu-op-us 20 "
    "--admission --admit-queue 5 --admit-deadline 300 --retry-budget 2 "
    "--retry-base 40 --retry-jitter 0.25 --backpressure --slo-latency 900 "
    "--consistency quorum --quorum-r 2 --quorum-w 2 --read-repair "
    "--staleness --antientropy --antientropy-interval 1200 "
    "--repl-queue-cap 4 --fault-seed 3 --fault-count 5 "
    "--fault-horizon 2500",
    "workload --consistency session",
    "record --out s2.json --seed 4 --arrival closed --load 30000 "
    "--concurrency 3 --requests 60 --keys 50 --read-fraction 0.8 "
    "--scan-fraction 0.1 --dist uniform --zipf-s 1.2",
    "record --out s3.json --requests 300 --scenario flash_crowd "
    "--scenario diurnal --scenario skew_shift --flash-at 2000 "
    "--flash-duration 1000 --flash-factor 3 --diurnal-period 5000 "
    "--diurnal-amplitude 0.3 --shift-at 100 --shift-dist uniform "
    "--shift-zipf-s 1.4",
    "capacity --seed 3 --transport srpc --loads 1000,2000 --concurrency 4 "
    "--requests 30 --keys 50 --read-fraction 0.8 --dist uniform "
    "--zipf-s 1.2 --pipeline-window 2 --batch-keys 2 --cache-keys 8 "
    "--cache-ttl 100 --read-spread --onesided",
    "capacity --transport sockets --loads 1000",
    "capacity --onesided --loads 1000",
    "capacity --ab --loads 1000,2000",
    "capacity --ab --loads 1000,2000 --pipeline-window 2 --batch-keys 3 "
    "--cache-keys 0 --cache-ttl 0",
    "capacity --ab --loads 1000 --cache-keys 16 --cache-ttl 500 "
    "--read-spread",
    "capacity --ab --onesided --loads 1000,2000",
    "capacity --ab --onesided --loads 1000 --pipeline-window 2 "
    "--cache-keys 8 --cache-ttl 50 --read-spread",
    "capacity --overload --loads 1000,2000",
    "capacity --overload --loads 1000 --cpu-slots 2 --cpu-op-us 30 "
    "--admit-queue 4 --admit-deadline 200 --retry-budget 2 "
    "--retry-base 70 --no-backpressure --slo-latency 800",
    "capacity --consistency --loads 1000,2000",
    "capacity --consistency --loads 1000 --quorum-r 2 --quorum-w 1",
    "capacity --consistency --overload --ab --loads 1000",
    "capacity --overload --ab --onesided --loads 1000",
    "antientropy --seed 2 --load 30000 --concurrency 3 --requests 100 "
    "--keys 40 --read-fraction 0.5 --interval 900 --repl-queue-cap 3 "
    "--crash-node 2 --crash-at 700 --crash-for 2000",
    "antientropy --crash-node -1",
    "explain --seed 2 --transport sockets --load 30000 --concurrency 3 "
    "--requests 40 --keys 30 --read-fraction 0.5 --trace-id 3 --onesided "
    "--no-telemetry --slo-latency 300 --slo-latency-budget 0.2 "
    "--slo-error-budget 0.05",
    "profile --seed 2 --transport sockets --load 30000 --concurrency 3 "
    "--requests 40 --keys 30 --read-fraction 0.5 --onesided "
    "--folded f.txt --top 2",
    # replay/diff with --set and --ab.
    "replay --stream stream.json --set transport=sockets "
    "--set cache_keys=8 --set read_spread=yes --set cpu_op_us=12.5",
    "replay --stream stream.json --set read_spread=true "
    "--ab pipeline_window=4 --ab batch_keys=4",
    "replay --stream closed-stream.json --ab consistency=session",
    "replay --stream stream.json --set bogus=1",
    "diff --stream stream.json --set cache_keys=4 --ab onesided_reads=true",
    "diff --stream profile-stream.json --ab transport=sockets",
]


def documented_invocations():
    """Every doc example of a spec subcommand, as the docs test parses it
    (placeholders filled in, trailing prose trimmed)."""
    parser = _build_parser()
    found = []
    for doc in DOC_FILES:
        for match in _CLI.finditer(doc.read_text()):
            argv = ["1" if _PLACEHOLDER.match(tok) else tok
                    for tok in shlex.split(match.group(1).strip())]
            while argv:
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        parser.parse_args(argv)
                    break
                except SystemExit:
                    if argv[-1].startswith("-"):
                        argv = []
                    else:
                        argv = argv[:-1]
            line = " ".join(argv)
            if argv and argv[0] in SPEC_COMMANDS and line not in found:
                found.append(line)
    return found


_DEFAULTS = asdict(WorkloadSpec())


def _same(value, default):
    return type(value) is type(default) and value == default


def _spec_delta(spec):
    """The spec's asdict, minus the fields left at their defaults."""
    return {name: value for name, value in asdict(spec).items()
            if not _same(value, _DEFAULTS[name])}


_CANNED = []


def _canned_report():
    if not _CANNED:
        _CANNED.append(run_workload(WorkloadSpec(requests=6, concurrency=2,
                                                 keys=8)))
    return _CANNED[0]


def capture(line, tmpdir, monkeypatch):
    """Run one invocation in a fresh ``tmpdir`` holding the STREAMS
    artifacts; return its exit code and the calls it made."""
    from repro.workload import save_stream

    for name, spec in STREAMS.items():
        save_stream(record_stream(spec), str(pathlib.Path(tmpdir) / name))
    canned = _canned_report()
    calls = []

    def fake_run(spec, fault_plan=None, stream=None):
        calls.append({"call": "run_workload", "spec": _spec_delta(spec),
                      "stream": stream is not None,
                      "faults": (fault_plan.describe()
                                 if fault_plan is not None else None)})
        return canned

    def fake_record(spec):
        calls.append({"call": "record_stream", "spec": _spec_delta(spec)})
        return record_stream(spec)

    for module in (workload_pkg, engine):
        monkeypatch.setattr(module, "run_workload", fake_run)
    for module in (workload_pkg, recorder):
        monkeypatch.setattr(module, "record_stream", fake_record)
    monkeypatch.chdir(tmpdir)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return {"exit": code, "calls": calls}


#: The pinned golden (empty until first generated).
PINNED = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
          else {"defaults": {}, "invocations": {}})


def test_golden_covers_every_invocation():
    missing = [line for line in EXPLICIT + documented_invocations()
               if line not in PINNED["invocations"]]
    assert not missing, "invocations without a pinned golden: %s" % missing
    assert PINNED["defaults"] == json.loads(json.dumps(_DEFAULTS))


@pytest.mark.parametrize("line", sorted(PINNED["invocations"]))
def test_cli_builds_the_pinned_specs(line, tmp_path, monkeypatch):
    got = json.loads(json.dumps(capture(line, tmp_path, monkeypatch)))
    assert got == PINNED["invocations"][line]


if __name__ == "__main__":
    import tempfile

    pinned = {}
    for line in EXPLICIT + documented_invocations():
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            pinned[line] = capture(line, tmp, patch)
    GOLDEN.write_text(json.dumps({"defaults": _DEFAULTS,
                                  "invocations": pinned},
                                 indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d invocations)" % (GOLDEN, len(pinned)))
