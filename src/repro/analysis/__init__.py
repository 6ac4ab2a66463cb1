"""reprolint: project-specific static analysis for this repository.

The last three PRs each fixed, by hand, a violation of the same small set
of engineering contracts: hooks fired under a lock, hand-maintained
forwarder lists silently dropping hooks, wall-clock and randomness leaking
past the ``Clock``/seeded-RNG seams the deterministic test suites depend
on.  This package turns those contracts into machine-checked rules over
the repo's own AST (stdlib :mod:`ast`, no dependencies):

==========  ==========================================================
REP001      no raw wall-clock reads outside the ``Clock`` seam
REP002      no unseeded ``random`` use
REP003      no instrumentation hooks fired while holding a lock
REP004      observer subclasses may only define known ``on_*`` hooks
REP005      no blind excepts in fetch/batch error-isolation paths
REP006      ``Stage.run()`` must not mutate ``self``
REP007      no ``print()`` outside the CLI/reporting layers
==========  ==========================================================

Run it from the repo root::

    python -m repro.analysis src/            # gate: nonzero exit on findings
    python -m repro.analysis src/ --format json
    python -m repro.analysis --list-rules

Inline escape hatch (linted itself: unknown ids and suppressions that
suppress nothing are findings too)::

    started = clock_reading  # reprolint: disable=REP001 -- justification
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.engine": ("AnalysisResult", "Analyzer", "Rule", "RuleVisitor"),
        "repro.analysis.findings": ("Finding",),
        "repro.analysis.report": ("render_json", "render_text"),
        "repro.analysis.rules": ("ALL_RULES", "default_rules"),
    },
)

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "Rule",
    "RuleVisitor",
    "default_rules",
    "render_json",
    "render_text",
]
