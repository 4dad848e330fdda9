"""Documentation link and CLI-example integrity.

Two structural checks over every Markdown file in the repo root and
``docs/``:

* every intra-repo Markdown link (``[text](path)`` or ``[text](path#anchor)``)
  resolves to a file or directory that exists — external ``http(s)``
  links are out of scope;
* every ``python -m repro ...`` invocation shown in a doc parses
  against the real argument parser, so a renamed flag or subcommand
  cannot strand a stale example.

Six more checks run documented commands and compare their output
with the blocks the doc shows for them, so those blocks cannot go stale.

These run in the docs CI job (.github/workflows/ci.yml) as well as in
the default test suite.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from repro.__main__ import _build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Process files (the per-PR task sheet and changelog) are not user
# documentation; their prose mentions pseudo-commands on purpose.
_NOT_DOCS = {"ISSUE.md", "CHANGES.md"}

DOC_FILES = sorted(
    path for path in
    list(REPO_ROOT.glob("*.md")) + list((REPO_ROOT / "docs").glob("*.md"))
    if path.name not in _NOT_DOCS)

# [text](target) — excluding images and inline code; reference-style
# links are not used in this repo.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

# A doc command example: "python -m repro <args...>" up to end of line,
# a pipe, or a redirect.
_CLI = re.compile(r"python -m repro\s+([^\n|>#`]*)")


def _md_id(path):
    return str(path.relative_to(REPO_ROOT))


def _intra_repo_links(text):
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("doc", DOC_FILES, ids=_md_id)
def test_intra_repo_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _intra_repo_links(text):
        if not target:
            continue  # pure-anchor link into the same file
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, "%s has broken links: %s" % (_md_id(doc), broken)


# Bare-uppercase doc placeholders ("--seed N", "--load L") stand in
# for numbers; substitute before parsing.
_PLACEHOLDER = re.compile(r"^[A-Z]+$")


def _example_parses(parser, argv):
    argv = ["1" if _PLACEHOLDER.match(tok) else tok for tok in argv]
    while True:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
            return True
        except SystemExit:
            # Trailing prose on the same line ("python -m repro scalars
            # prints the table") trims away token by token; a genuinely
            # stale flag or subcommand never parses.
            if argv and not argv[-1].startswith("-"):
                argv = argv[:-1]
            else:
                return False


@pytest.mark.parametrize("doc", DOC_FILES, ids=_md_id)
def test_cli_examples_parse(doc):
    parser = _build_parser()
    failures = []
    for match in _CLI.finditer(doc.read_text()):
        argv = shlex.split(match.group(1).strip())
        if not _example_parses(parser, argv):
            failures.append(match.group(0).strip())
    assert not failures, "%s has stale CLI examples: %s" % (
        _md_id(doc), failures)


def test_architecture_doc_is_linked_everywhere():
    """ARCHITECTURE.md is the map: the README and every other doc in
    docs/ must point a reader at it."""
    arch = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert arch.is_file(), "docs/ARCHITECTURE.md is missing"
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        if doc.name == "ARCHITECTURE.md":
            continue
        assert "ARCHITECTURE.md" in doc.read_text(), (
            "%s does not link to the architecture map" % _md_id(doc))


#: EXPERIMENTS.md's mitigation A/B command (``make mitigation-demo``).
MITIGATION_AB = ("python -m repro capacity --loads "
                 "20000,40000,80000,120000,160000,240000,320000 "
                 "--zipf-s 1.3 --ab")


def _output_block_after(text, command):
    """The fenced block following the fenced block holding ``command``."""
    lines = text[text.index(command):].splitlines()
    fences = [i for i, line in enumerate(lines) if line == "```"]
    # fences[0] closes the command's block; the next pair brackets
    # the output shown for it.
    return "\n".join(lines[fences[1] + 1:fences[2]])


def _printed(command):
    """What ``command`` (a ``python -m repro ...`` line) prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)[3:]) == 0
    return out.getvalue().rstrip("\n")


def test_experiments_mitigation_block_is_the_commands_output():
    expected = _output_block_after(
        (REPO_ROOT / "EXPERIMENTS.md").read_text(), MITIGATION_AB)
    assert _printed(MITIGATION_AB) == expected


def test_experiments_paper_table_is_the_commands_output():
    """EXPERIMENTS.md's paper-vs-measured table is what the command
    prints, and what the headline benchmark writes."""
    command = "python -m repro scalars"
    expected = _output_block_after(
        (REPO_ROOT / "EXPERIMENTS.md").read_text(), command)
    assert _printed(command) == expected
    written = REPO_ROOT / "benchmarks" / "results" / "headline_scalars.txt"
    assert written.read_text().rstrip("\n") == expected


#: EXPERIMENTS.md's scatter-gather scan run (``make scan-demo``): the
#: ledger's kv-sockets-mixed reference input.
SCAN_DEMO = ("python -m repro workload --seed 11 --transport sockets "
             "--arrival closed --concurrency 8 --requests 1500 --keys 2000 "
             "--dist uniform --read-fraction 0.45 --scan-fraction 0.05")


def test_experiments_scan_block_is_the_commands_output():
    """The doc shows the run's report through its per-op table's
    ``OVERALL`` row; the service and utilization lines are left out."""
    shown = _output_block_after(
        (REPO_ROOT / "EXPERIMENTS.md").read_text(), SCAN_DEMO).splitlines()
    printed = _printed(SCAN_DEMO).splitlines()
    end = next(i for i, line in enumerate(printed)
               if line.startswith("OVERALL "))
    assert printed[:end + 1] == shown


#: WORKLOADS.md's capacity sweep example.
CAPACITY_SWEEP = ("python -m repro capacity --loads "
                  "10000,40000,80000,160000,320000")


def test_workloads_capacity_block_is_the_commands_output():
    expected = _output_block_after(
        (REPO_ROOT / "docs" / "WORKLOADS.md").read_text(), CAPACITY_SWEEP)
    assert _printed(CAPACITY_SWEEP) == expected


#: OBSERVABILITY.md's worked ``explain`` example (``make explain-demo``).
EXPLAIN_DEMO = "python -m repro explain --seed 1 --requests 80"


def test_observability_explain_block_is_the_commands_output():
    """The doc shows the command's tree and stage budget, through its
    ``measured`` line; the telemetry summary printed after that is
    left out of the doc."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    lines = text[text.index("$ " + EXPLAIN_DEMO):].splitlines()
    shown = lines[1:lines.index("```")]
    printed = _printed(EXPLAIN_DEMO).splitlines()
    end = next(i for i, line in enumerate(printed)
               if line.startswith("measured "))
    assert printed[:end + 1] == shown


#: OBSERVABILITY.md's worked ``trace`` example.
TRACE_DEMO = "python -m repro trace"


def test_observability_trace_block_is_the_commands_output():
    """The doc shows the command's measured budget, through its
    ``TOTAL`` line; run here without writing the trace file."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    lines = text[text.index("$ %s\n" % TRACE_DEMO):].splitlines()
    shown = lines[1:lines.index("```")]
    printed = _printed(TRACE_DEMO + " --out ''").splitlines()
    end = next(i for i, line in enumerate(printed)
               if line.startswith("  TOTAL "))
    assert printed[:end + 1] == shown
