"""Hot-path span/metric emission must be guarded — enforced by AST audit.

The disabled-tracing cost contract (docs/OBSERVABILITY.md) is one
attribute load and one branch per site: every tracer producer call
(``begin``, ``complete``, ``instant``, ``reserve_sid``,
``new_trace_id``), every cross-wire context hand-off (``post``,
``claim``), and every telemetry hook (``sampler.window.record``,
``recorder.capture``), must sit behind a cheap guard — an
``if ...enabled:`` block (or the workload engine's ``if traced:``
local), an early ``if not tracer.enabled: return``, or an
``is not None`` check on an object that only exists when telemetry is
on.  ``tracer.end`` is exempt (``end(None)`` is a no-op by design).

This test parses the source of every span-emitting module and fails on
any unguarded emission, so a refactor that drops a guard (and silently
taxes the simulation hot path) is caught in CI, not in a profile.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Tracer methods whose calls count as span emission: the span
#: producers, the id allocators that only serve them, and the
#: cross-wire context hand-off.
EMITTING_ATTRS = {"begin", "complete", "instant", "reserve_sid",
                  "new_trace_id", "post", "claim"}
#: Telemetry hooks: (attribute called, object-chain substring required).
#: ``profiling.tag_root`` mutates the just-closed root span's data dict
#: (workload/engine.py), so it is a hot-path hook like the sampler.
HOOK_ATTRS = {"record": "sampler", "capture": "recorder",
              "tag_root": "profiling"}
#: The tracer module itself and pure span *consumers* are exempt: they
#: are the implementation (or run strictly after the simulation), not
#: call sites on the simulation hot path.
EXEMPT = {"sim/trace.py", "obs/assemble.py", "obs/slo.py",
          "obs/timeseries.py", "obs/profile.py", "obs/diff.py"}


def _chain(node):
    """The dotted-name chain of an expression, lowercased."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _is_guard_test(test):
    """Whether an ``if`` test establishes the emission guard."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "traced":
            return True
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            return True
    return False


def _emitting_calls(tree):
    """(call node, enclosing guard-If lines, function) for each emission."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_If(self, node):
            self.stack.append(node)
            self.generic_visit(node)
            self.stack.pop()

        def visit_FunctionDef(self, node, guards=None):
            prev, self.stack = self.stack, []
            self.functions = getattr(self, "functions", [])
            self.functions.append(node)
            self.generic_visit(node)
            self.functions.pop()
            self.stack = prev

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            if isinstance(func, ast.Attribute):
                chain = _chain(func)
                emitting = (func.attr in EMITTING_ATTRS
                            and "tracer" in chain)
                hook_need = HOOK_ATTRS.get(func.attr)
                if hook_need is not None and hook_need in chain:
                    emitting = True
                if emitting:
                    enclosing = (self.functions[-1]
                                 if getattr(self, "functions", []) else None)
                    found.append((node, list(self.stack), enclosing))
            self.generic_visit(node)

    Visitor().visit(tree)
    return found


def find_unguarded(source, filename="<module>"):
    """Every unguarded emission in ``source``, as readable strings."""
    tree = ast.parse(source, filename=filename)
    problems = []
    for call, ifs, func in _emitting_calls(tree):
        if any(_is_guard_test(stmt.test) for stmt in ifs):
            continue  # lexically inside a guarded block
        if func is not None and any(
                isinstance(stmt, ast.If) and _is_guard_test(stmt.test)
                and stmt.lineno <= call.lineno
                for stmt in ast.walk(func)):
            continue  # early-return guard style earlier in the function
        problems.append("%s:%d: unguarded %s emission"
                        % (filename, call.lineno, _chain(call.func)))
    return problems


def _emitting_modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in EXEMPT:
            continue
        text = path.read_text()
        if (any(".%s(" % attr in text for attr in EMITTING_ATTRS)
                or "sampler.window.record" in text
                or "recorder.capture" in text
                or "profiling.tag_root(" in text):
            yield rel, text


def test_every_hot_path_emission_is_guarded():
    problems = []
    audited = 0
    for rel, text in _emitting_modules():
        audited += 1
        problems.extend(find_unguarded(text, rel))
    assert audited >= 10, "audit lost track of the span-emitting modules"
    assert not problems, "\n".join(problems)


def test_auditor_flags_unguarded_emission():
    bad = (
        "def hot_path(proc):\n"
        "    span = proc.tracer.begin('cat', 'name', track='t')\n"
        "    proc.tracer.end(span)\n"
    )
    assert find_unguarded(bad) == [
        "<module>:2: unguarded proc.tracer.begin emission"]


def test_auditor_flags_unguarded_telemetry_hook():
    bad = (
        "def record(latency):\n"
        "    sampler.window.record(latency)\n"
    )
    assert len(find_unguarded(bad)) == 1


def test_auditor_flags_unguarded_root_tagging():
    bad = (
        "def worker(client, arrival):\n"
        "    profiling.tag_root(client, arrival=arrival)\n"
    )
    assert find_unguarded(bad) == [
        "<module>:2: unguarded profiling.tag_root emission"]


def test_auditor_flags_unguarded_instant_and_id_allocation():
    bad = (
        "def send(self, fault):\n"
        "    self.tracer.instant('fault', 'drop', track='faults')\n"
        "    tid = self.tracer.new_trace_id()\n"
        "    sid = self.tracer.reserve_sid()\n"
    )
    assert find_unguarded(bad) == [
        "<module>:2: unguarded self.tracer.instant emission",
        "<module>:3: unguarded self.tracer.new_trace_id emission",
        "<module>:4: unguarded self.tracer.reserve_sid emission"]


def test_auditor_flags_unguarded_context_hand_off():
    bad = (
        "def send(self, key, ctx, span):\n"
        "    self.tracer.post(key, ctx)\n"
        "    self.tracer.claim(key, span)\n"
    )
    assert find_unguarded(bad) == [
        "<module>:2: unguarded self.tracer.post emission",
        "<module>:3: unguarded self.tracer.claim emission"]


def test_auditor_rejects_a_traced_attribute_as_guard():
    # Only the tracer's own flag (or the engine's ``traced`` local,
    # a copy of the spec's) is a guard; a per-object ``traced`` flag
    # could drift from the tracer's state.
    bad = (
        "def serve(self):\n"
        "    if self.traced:\n"
        "        self.proc.tracer.complete('c', 'n', 0.0, track='t')\n"
    )
    assert find_unguarded(bad) == [
        "<module>:3: unguarded self.proc.tracer.complete emission"]


def test_auditor_accepts_guarded_root_tagging():
    # The exact style workload/engine.py uses around its tag_root sites.
    good = (
        "def worker(client, arrival, traced):\n"
        "    if traced:\n"
        "        profiling.tag_root(client, arrival=arrival)\n"
    )
    assert find_unguarded(good) == []


def test_auditor_accepts_the_guard_styles():
    good = (
        "def a(proc):\n"
        "    if proc.tracer.enabled:\n"
        "        proc.tracer.begin('c', 'n', track='t')\n"
        "def b(tracer):\n"
        "    if not tracer.enabled:\n"
        "        return\n"
        "    tracer.complete('c', 'n', 0.0, track='t')\n"
        "def c(sampler, latency):\n"
        "    if sampler is not None:\n"
        "        sampler.window.record(latency)\n"
        "def d(tracer, traced):\n"
        "    if traced:\n"
        "        tracer.complete('c', 'n', 0.0, track='t')\n"
    )
    assert find_unguarded(good) == []


def test_tracer_end_of_none_stays_exempt():
    # The contract the exemption rests on: end(None) must be a no-op.
    from repro.sim import Simulator, Tracer

    tracer = Tracer(Simulator(), enabled=True)
    tracer.end(None)
    assert tracer.spans == []
