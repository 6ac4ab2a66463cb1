"""The REP rule set: invariants this repository has already paid to learn.

Each rule encodes a contract a previous PR fixed by hand after it broke:

* **REP001** -- wall-clock reads (``time.time()``, ``time.monotonic()``,
  ``datetime.now()``) outside the ``Clock`` seam make the chaos and
  property suites nondeterministic.  A raw ``time.time()`` in
  ``observe/span.py`` made spans untestable under ``FakeClock``.
* **REP002** -- unseeded ``random`` (module-level functions share one
  global RNG; ``random.Random()`` with no seed) breaks bit-for-bit
  reproducibility of fault schedules and corpora.
* **REP003** -- instrumentation hooks fired while holding a lock: an
  observer that re-enters the emitter (or blocks on its own lock)
  deadlocks, and even a polite observer serializes every worker behind
  its I/O.  The PR 3 ``CircuitBreaker`` bug, as a rule.
* **REP004** -- an ``Instrumentation`` subclass defining an ``on_*``
  method that is not in ``HOOK_NAMES`` has typo'd a hook: it will never
  fire, silently.  (Hand-maintained forwarder lists dropped hooks the
  same way before PR 3 generated them from ``HOOK_NAMES``.)
* **REP005** -- a bare or blanket ``except`` in an error-isolation path
  that neither classifies the failure kind nor re-raises turns a
  reportable loss into a silent one.
* **REP006** -- ``Stage.run()`` mutating ``self``: stage instances are
  shared across every worker thread of a :class:`BatchExtractor`; all
  per-extraction state belongs on the :class:`ExtractionContext`.
* **REP007** -- ``print()`` in library code bypasses the instrumentation
  and observability layers; user-facing output belongs to the CLI.
* **REP008** -- ``threading.Thread`` constructed without ``name=``:
  anonymous ``Thread-N`` labels make stack dumps and span attribution
  useless in the multi-threaded serve runtime and batch engine.
* **REP010** -- ``socket`` / ``urllib.request`` / ``urllib.error`` in
  :mod:`repro.fleet` outside ``fleet/transport.py``: every other fleet
  module speaks the ``NodeClient`` protocol, which the in-process
  harness satisfies with plain objects, so the fleet chaos suite runs
  without sockets and stays deterministic.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import (
    Rule,
    RuleVisitor,
    SourceFile,
    dotted_name,
    path_matches,
)
from repro.analysis.findings import Finding

__all__ = [
    "ALL_RULES",
    "Rep001RawClock",
    "Rep002UnseededRandom",
    "Rep003HookUnderLock",
    "Rep004UnknownHook",
    "Rep005BlindExcept",
    "Rep006StageMutatesSelf",
    "Rep007PrintInLibrary",
    "Rep008UnnamedThread",
    "Rep010FleetNetworkSeam",
    "default_rules",
    "instrumentation_base_names",
    "instrumentation_hook_names",
]


def instrumentation_hook_names() -> frozenset[str]:
    """The live hook surface, straight from the source of truth.

    reprolint is project-specific: it may import the project it lints, so
    the rule can never drift from ``HOOK_NAMES`` the way a hand-copied
    list would.
    """
    from repro.core.stages.instrumentation import HOOK_NAMES

    return frozenset(HOOK_NAMES)


def instrumentation_base_names() -> frozenset[str]:
    """Every known ``Instrumentation`` class name, for base matching.

    Walks the live subclass tree (importing :mod:`repro.observe` so its
    adapters register) -- a class deriving from any of these names is
    treated as an observer whose ``on_*`` surface REP004 checks.
    """
    import repro.observe.adapter  # noqa: F401  (registers TracingInstrumentation)
    from repro.core.stages.instrumentation import Instrumentation

    names = {Instrumentation.__name__}
    frontier = [Instrumentation]
    while frontier:
        for subclass in frontier.pop().__subclasses__():
            if subclass.__name__ not in names:
                names.add(subclass.__name__)
                frontier.append(subclass)
    return frozenset(names)


def _base_names(node: ast.ClassDef) -> list[str]:
    """The terminal identifier of each base class expression."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


# -- REP001: wall-clock reads outside the Clock seam --------------------------

_BANNED_TIME_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

_BANNED_TIME_IMPORTS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns"})


class _Rep001Visitor(RuleVisitor):
    def handle_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in _BANNED_TIME_CALLS:
            self.report(
                node,
                f"raw wall-clock read {name}(): route time through the "
                "Clock seam (repro.fetch.base.Clock) so FakeClock tests "
                "stay deterministic",
            )

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in _BANNED_TIME_IMPORTS:
                self.report(
                    node,
                    f"'from time import {alias.name}' hides a wall-clock "
                    "read from this rule; import the module or use the "
                    "Clock seam",
                )


class Rep001RawClock(Rule):
    rule_id = "REP001"
    title = "no raw wall-clock reads outside the Clock seam"
    invariant = (
        "time.time()/time.monotonic()/datetime.now() only inside "
        "repro/fetch/base.py (SystemClock); everything else reads an "
        "injected Clock, which is what lets FakeClock drive breaker "
        "cooldowns, cache TTLs and span timestamps deterministically"
    )
    allowed_paths = ("repro/fetch/base.py",)
    visitor_class = _Rep001Visitor


# -- REP002: unseeded randomness ----------------------------------------------

_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


class _Rep002Visitor(RuleVisitor):
    def handle_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is None or not name.startswith("random."):
            return
        tail = name[len("random."):]
        if tail == "Random" and not node.args and not node.keywords:
            self.report(
                node,
                "random.Random() with no seed is nondeterministic; derive "
                "the seed from the run's master seed",
            )
        elif tail in _GLOBAL_RANDOM_FUNCS:
            self.report(
                node,
                f"random.{tail}() uses the shared global RNG; use a seeded "
                "random.Random(seed) instance instead",
            )

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        if node.module != "random":
            return
        for alias in node.names:
            if alias.name in _GLOBAL_RANDOM_FUNCS:
                self.report(
                    node,
                    f"'from random import {alias.name}' imports a "
                    "global-RNG function; use a seeded random.Random(seed)",
                )


class Rep002UnseededRandom(Rule):
    rule_id = "REP002"
    title = "no unseeded randomness"
    invariant = (
        "every RNG is a random.Random(seed) derived from an explicit seed, "
        "so fault schedules, backoff jitter and generated corpora replay "
        "bit-for-bit (the chaos suite asserts exact counter values)"
    )
    visitor_class = _Rep002Visitor


# -- REP003: instrumentation hooks fired under a lock -------------------------


class _Rep003Visitor(RuleVisitor):
    def __init__(self, rule: Rule, src: SourceFile) -> None:
        super().__init__(rule, src)
        self.hook_names = instrumentation_hook_names()

    def handle_call(self, node: ast.Call) -> None:
        if self.lock_depth == 0:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.hook_names:
            self.report(
                node,
                f"instrumentation hook {func.attr}() fired inside a 'with "
                "<lock>:' body; collect notifications under the lock and "
                "fire them after release (CircuitBreaker deadlock class)",
            )


class Rep003HookUnderLock(Rule):
    rule_id = "REP003"
    title = "no instrumentation hook calls while holding a lock"
    invariant = (
        "observer hooks run arbitrary user code; firing one inside a "
        "'with self._lock:' body deadlocks re-entrant observers and "
        "serializes every worker behind observer I/O -- the PR 3 "
        "CircuitBreaker bug"
    )
    visitor_class = _Rep003Visitor


# -- REP004: observer methods that are not real hooks -------------------------


class Rep004UnknownHook(Rule):
    rule_id = "REP004"
    title = "Instrumentation subclasses may only define known on_* hooks"
    invariant = (
        "the engine calls hooks by name from HOOK_NAMES; an on_* method "
        "outside that surface is a typo that never fires (the pre-PR 3 "
        "silently-dropped-hook class)"
    )

    def check(self, src: SourceFile) -> list[Finding]:
        hook_names = instrumentation_hook_names()
        base_names = set(instrumentation_base_names())
        classes = [
            node for node in ast.walk(src.tree) if isinstance(node, ast.ClassDef)
        ]
        # In-file subclass closure: ``class Mine(Instrumentation)`` makes
        # ``class Theirs(Mine)`` an observer too.
        grew = True
        while grew:
            grew = False
            for node in classes:
                if node.name in base_names:
                    continue
                if any(base in base_names for base in _base_names(node)):
                    base_names.add(node.name)
                    grew = True

        findings: list[Finding] = []
        for node in classes:
            is_observer = node.name in base_names and any(
                base in base_names for base in _base_names(node)
            )
            if not is_observer:
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("on_") and member.name not in hook_names:
                    findings.append(
                        Finding(
                            path=src.rel,
                            line=member.lineno,
                            col=member.col_offset,
                            rule_id=self.rule_id,
                            message=(
                                f"{node.name}.{member.name} is not an "
                                "Instrumentation hook (HOOK_NAMES); it will "
                                "never fire -- fix the name or drop the "
                                "on_ prefix"
                            ),
                        )
                    )
        return findings


# -- REP005: blind excepts in error-isolation paths ---------------------------

#: Paths whose job is to isolate failures: a swallowed exception here must
#: be turned into a classified failure record, never silently dropped.
_ISOLATION_PATHS = ("repro/fetch/*.py", "repro/core/batch.py")

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _exception_names(node: ast.expr | None) -> Iterable[str]:
    if node is None:
        return
    targets = node.elts if isinstance(node, ast.Tuple) else [node]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr


def _handler_recovers(node: ast.ExceptHandler) -> bool:
    """Does the handler re-raise or classify what it caught?"""
    for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
        if isinstance(child, ast.Raise):
            return True
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None and name.split(".")[-1] == "classify_failure":
                return True
    return False


class _Rep005Visitor(RuleVisitor):
    def handle_except(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' swallows KeyboardInterrupt and SystemExit; "
                "catch a concrete exception type",
            )
            return
        if not path_matches(self.src.rel, _ISOLATION_PATHS):
            return
        broad = set(_exception_names(node.type)) & _BROAD_EXCEPTIONS
        if broad and not _handler_recovers(node):
            self.report(
                node,
                f"blanket 'except {sorted(broad)[0]}' in an error-isolation "
                "path must classify the failure (classify_failure) or "
                "re-raise; a silent drop loses the failure kind",
            )


class Rep005BlindExcept(Rule):
    rule_id = "REP005"
    title = "no blind excepts in error-isolation paths"
    invariant = (
        "fetch/batch isolation handlers exist to convert exceptions into "
        "classified FailedExtraction records; a broad except that neither "
        "classifies nor re-raises makes losses unreportable (bare "
        "'except:' is banned everywhere)"
    )
    visitor_class = _Rep005Visitor


# -- REP006: stages must not mutate self --------------------------------------


def _is_stage_class(node: ast.ClassDef) -> bool:
    """Stage-shaped: class-level ``name`` and ``timing_column`` plus ``run``."""
    attrs: set[str] = set()
    has_run = False
    for member in node.body:
        if isinstance(member, ast.Assign):
            attrs.update(
                target.id
                for target in member.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(member, ast.AnnAssign) and isinstance(
            member.target, ast.Name
        ):
            attrs.add(member.target.id)
        elif (
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name == "run"
        ):
            has_run = True
    return has_run and {"name", "timing_column"} <= attrs


def _root_name(node: ast.expr) -> str | None:
    """The leftmost Name in an attribute/subscript target chain."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


class _Rep006Visitor(RuleVisitor):
    def handle_class(self, node: ast.ClassDef) -> None:
        if not _is_stage_class(node):
            return
        for member in node.body:
            if (
                isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and member.name == "run"
            ):
                self._check_run(node, member)

    def _check_run(
        self, cls: ast.ClassDef, run: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        targets: list[ast.expr] = []
        for child in ast.walk(run):
            if isinstance(child, ast.Assign):
                targets.extend(child.targets)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets.append(child.target)
            elif isinstance(child, ast.Delete):
                targets.extend(child.targets)
        for target in targets:
            if isinstance(target, ast.Name):
                continue  # locals are fine
            if _root_name(target) == "self":
                self.report(
                    target,
                    f"{cls.name}.run() mutates self ({ast.unparse(target)}); "
                    "stage instances are shared across batch worker threads "
                    "-- put per-extraction state on the ExtractionContext",
                )


class Rep006StageMutatesSelf(Rule):
    rule_id = "REP006"
    title = "Stage.run() must not mutate self"
    invariant = (
        "one stage instance serves every worker thread of a "
        "BatchExtractor; run() writing to self is a data race -- all "
        "per-extraction state lives on the ExtractionContext"
    )
    visitor_class = _Rep006Visitor


# -- REP007: print() in library code ------------------------------------------


class _Rep007Visitor(RuleVisitor):
    def handle_call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(
                node,
                "print() in library code bypasses instrumentation; report "
                "through hooks/metrics, or move output to the CLI layer",
            )


class Rep007PrintInLibrary(Rule):
    rule_id = "REP007"
    title = "no print() outside the CLI/reporting layers"
    invariant = (
        "library modules report through the Instrumentation hook surface "
        "and the observe exporters; stray print() is untestable debug "
        "output that corrupts machine-read stdout (e.g. omini --json)"
    )
    scoped_paths = ("repro/*",)
    allowed_paths = ("repro/cli.py", "repro/analysis/*", "repro/eval/harness2.py")
    visitor_class = _Rep007Visitor


# -- REP008: unnamed threads in library code ----------------------------------


class _Rep008Visitor(RuleVisitor):
    def handle_call(self, node: ast.Call) -> None:
        if dotted_name(node.func) not in ("threading.Thread", "Thread"):
            return
        if any(keyword.arg == "name" for keyword in node.keywords):
            return
        self.report(
            node,
            "threading.Thread(...) without name=: anonymous 'Thread-N' "
            "labels make stack dumps, logs, and span attribution useless "
            "in the long-running service -- name every thread",
        )


class Rep008UnnamedThread(Rule):
    rule_id = "REP008"
    title = "every threading.Thread must be constructed with name="
    invariant = (
        "the serve runtime, batch engine, and benchmarks all run "
        "multi-threaded; debugging them relies on threads carrying "
        "stable, descriptive names (e.g. 'serve-worker-0')"
    )
    scoped_paths = ("repro/*",)
    visitor_class = _Rep008Visitor


# -- REP010: network I/O in repro.fleet outside the transport seam -------------

#: Modules that open real connections.  ``urllib.parse`` (pure string
#: work) and ``http.server`` (listening, not dialing) stay allowed.
_BANNED_NETWORK_MODULES = frozenset({"socket", "urllib.request", "urllib.error"})

_BANNED_NETWORK_PREFIXES = ("socket.", "urllib.request.", "urllib.error.")


class _Rep010Visitor(RuleVisitor):
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in _BANNED_NETWORK_MODULES or alias.name.startswith(
                _BANNED_NETWORK_PREFIXES
            ):
                self.report(
                    node,
                    f"'import {alias.name}' opens the network seam; fleet "
                    "modules talk to nodes through repro/fleet/transport.py "
                    "(HttpNodeClient) so the in-process harness stays "
                    "socket-free and deterministic",
                )
        self.generic_visit(node)

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module in _BANNED_NETWORK_MODULES or module.startswith(
            _BANNED_NETWORK_PREFIXES
        ):
            self.report(
                node,
                f"'from {module} import ...' opens the network seam; route "
                "node I/O through repro/fleet/transport.py",
            )
            return
        if module == "urllib":
            for alias in node.names:
                if alias.name in ("request", "error"):
                    self.report(
                        node,
                        f"'from urllib import {alias.name}' opens the "
                        "network seam; route node I/O through "
                        "repro/fleet/transport.py",
                    )

    def handle_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and name.startswith(_BANNED_NETWORK_PREFIXES):
            self.report(
                node,
                f"{name}() dials the network directly; fleet modules go "
                "through the repro/fleet/transport.py NodeClient seam",
            )


class Rep010FleetNetworkSeam(Rule):
    rule_id = "REP010"
    title = "fleet network I/O only inside repro/fleet/transport.py"
    invariant = (
        "repro.fleet is testable without sockets because exactly one "
        "module (transport.py) touches socket/urllib.request; every other "
        "fleet module speaks the NodeClient protocol, which the "
        "in-process harness satisfies with plain objects -- that is what "
        "makes the chaos suite deterministic (urllib.parse and "
        "http.server remain fine: they never dial out)"
    )
    scoped_paths = ("repro/fleet/*",)
    allowed_paths = ("repro/fleet/transport.py",)
    visitor_class = _Rep010Visitor


#: Rule classes in id order -- the registry the CLI and tests build from.
ALL_RULES: tuple[type[Rule], ...] = (
    Rep001RawClock,
    Rep002UnseededRandom,
    Rep003HookUnderLock,
    Rep004UnknownHook,
    Rep005BlindExcept,
    Rep006StageMutatesSelf,
    Rep007PrintInLibrary,
    Rep008UnnamedThread,
    Rep010FleetNetworkSeam,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [rule() for rule in ALL_RULES]
