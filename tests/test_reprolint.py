"""Tests for reprolint (repro.analysis): rules, suppressions, reporters, CLI.

Each REP rule gets a paired good/bad fixture: the bad snippet seeds the
exact violation class a past PR fixed by hand (including the PR 3
CircuitBreaker hook-under-lock bug, reproduced verbatim in shape), the
good snippet is the sanctioned pattern and must stay quiet.  On top of the
rules: suppression comments (honoured, unused-detected, unknown-id
rejected), the JSON reporter schema, and the CLI's exit-code contract.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules
from repro.analysis.cli import main
from repro.analysis.engine import dotted_name, is_lock_expr, path_matches
from repro.analysis.findings import SUPPRESSION_RULE_ID, SYNTAX_RULE_ID
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES

LIB = "src/repro/somepkg/mod.py"  # a library file: every rule applies


def lint(tmp_path: Path, code: str, *, rel: str = LIB):
    """Write ``code`` at ``rel`` under a temp root and run every rule."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    analyzer = Analyzer(default_rules(), root=tmp_path)
    return analyzer.run([target])


def rule_ids(result) -> list[str]:
    return [finding.rule_id for finding in result.findings]


# -- REP001: wall-clock reads -------------------------------------------------


class TestRep001:
    def test_raw_time_call_is_flagged(self, tmp_path):
        result = lint(tmp_path, "import time\nstart = time.time()\n")
        assert rule_ids(result) == ["REP001"]
        assert "Clock seam" in result.findings[0].message

    @pytest.mark.parametrize(
        "call", ["time.monotonic()", "datetime.now()", "datetime.datetime.now()"]
    )
    def test_every_banned_read_is_flagged(self, tmp_path, call):
        result = lint(tmp_path, f"import time, datetime\nx = {call}\n")
        assert rule_ids(result) == ["REP001"]

    def test_from_time_import_is_flagged(self, tmp_path):
        result = lint(tmp_path, "from time import monotonic\n")
        assert rule_ids(result) == ["REP001"]

    def test_clock_seam_and_perf_counter_are_fine(self, tmp_path):
        result = lint(
            tmp_path,
            """
            import time

            def measure(self):
                start = self.clock.monotonic()
                perf = time.perf_counter()
                return start, perf
            """,
        )
        assert result.ok

    def test_system_clock_home_is_allowlisted(self, tmp_path):
        code = "import time\n\ndef now():\n    return time.time()\n"
        result = lint(tmp_path, code, rel="src/repro/fetch/base.py")
        assert result.ok


# -- REP002: unseeded randomness ----------------------------------------------


class TestRep002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random\nrng = random.Random()\n",
            "from random import choice\n",
        ],
    )
    def test_unseeded_use_is_flagged(self, tmp_path, snippet):
        assert rule_ids(lint(tmp_path, snippet)) == ["REP002"]

    def test_seeded_rng_is_fine(self, tmp_path):
        result = lint(
            tmp_path,
            """
            import random

            rng = random.Random("seed:url:3")
            value = rng.random()
            pick = rng.choice([1, 2, 3])
            """,
        )
        assert result.ok


# -- REP003: hooks under a lock (the PR 3 CircuitBreaker bug) -----------------

#: The bug as it was written: the breaker fired its observer hook while
#: still holding the state lock.
BREAKER_BUG = """
import threading

class CircuitBreaker:
    def __init__(self, observer):
        self.observer = observer
        self._lock = threading.Lock()
        self.state = "closed"

    def record_failure(self, site):
        with self._lock:
            self.state = "open"
            self.observer.on_breaker_transition(site, "closed", "open")
"""

#: The fix as it was made: collect notifications under the lock, fire
#: them after release.
BREAKER_FIX = """
import threading

class CircuitBreaker:
    def __init__(self, observer):
        self.observer = observer
        self._lock = threading.Lock()
        self.state = "closed"

    def record_failure(self, site):
        with self._lock:
            self.state = "open"
            pending = [(site, "closed", "open")]
        for site, old, new in pending:
            self.observer.on_breaker_transition(site, old, new)
"""


class TestRep003:
    def test_circuitbreaker_regression_fixture(self, tmp_path):
        result = lint(tmp_path, BREAKER_BUG)
        assert rule_ids(result) == ["REP003"]
        assert "on_breaker_transition" in result.findings[0].message

    def test_fixed_breaker_is_clean(self, tmp_path):
        assert lint(tmp_path, BREAKER_FIX).ok

    def test_nested_with_still_counts_as_locked(self, tmp_path):
        result = lint(
            tmp_path,
            """
            def hook(self, url):
                with self._lock:
                    with open("log") as handle:
                        self.observer.on_fetch_start(url)
            """,
        )
        assert rule_ids(result) == ["REP003"]

    def test_non_hook_calls_under_lock_are_fine(self, tmp_path):
        result = lint(
            tmp_path,
            """
            def bump(self):
                with self._lock:
                    self.counts.update({"a": 1})
            """,
        )
        assert result.ok


# -- REP004: typo'd observer hooks --------------------------------------------


class TestRep004:
    def test_typoed_hook_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.core.stages.instrumentation import Instrumentation

            class MyObserver(Instrumentation):
                def on_pag_start(self, page):
                    pass
            """,
        )
        assert rule_ids(result) == ["REP004"]
        assert "on_pag_start" in result.findings[0].message

    def test_in_file_subclass_chain_is_checked(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.core.stages.instrumentation import Instrumentation

            class Base(Instrumentation):
                pass

            class Derived(Base):
                def on_fetch_done(self, url):
                    pass
            """,
        )
        assert rule_ids(result) == ["REP004"]

    def test_real_hooks_and_helpers_are_fine(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.core.stages.instrumentation import Instrumentation

            class MyObserver(Instrumentation):
                def on_page_start(self, page):
                    pass

                def snapshot(self):
                    return {}
            """,
        )
        assert result.ok

    def test_unrelated_class_with_on_method_is_fine(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Button:
                def on_click(self):
                    pass
            """,
        )
        assert result.ok


# -- REP005: blind excepts ----------------------------------------------------


class TestRep005:
    def test_bare_except_is_flagged_everywhere(self, tmp_path):
        result = lint(
            tmp_path,
            """
            def load():
                try:
                    return 1
                except:
                    return None
            """,
        )
        assert rule_ids(result) == ["REP005"]

    def test_broad_except_in_isolation_path_needs_classification(self, tmp_path):
        code = """
        def fetch_one(task):
            try:
                return run(task)
            except Exception:
                return None
        """
        result = lint(tmp_path, code, rel="src/repro/fetch/pool.py")
        assert rule_ids(result) == ["REP005"]
        # The same handler outside the isolation paths is left alone.
        assert lint(tmp_path, code, rel="src/repro/eval/pool.py").ok

    @pytest.mark.parametrize(
        "body",
        [
            "raise",
            "return FailedExtraction(kind=classify_failure(error))",
        ],
    )
    def test_classified_or_reraising_handlers_are_fine(self, tmp_path, body):
        result = lint(
            tmp_path,
            f"""
            def fetch_one(task):
                try:
                    return run(task)
                except Exception as error:
                    {body}
            """,
            rel="src/repro/fetch/pool.py",
        )
        assert result.ok


# -- REP006: stages mutating self ---------------------------------------------


class TestRep006:
    def test_stage_run_mutating_self_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class CountingStage:
                name = "counting"
                timing_column = None

                def run(self, ctx):
                    self.calls = getattr(self, "calls", 0) + 1
            """,
        )
        assert rule_ids(result) == ["REP006"]
        assert "ExtractionContext" in result.findings[0].message

    def test_mutation_through_self_container_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class CachingStage:
                name = "caching"
                timing_column = None

                def run(self, ctx):
                    self.cache[ctx.site] = ctx.root
            """,
        )
        assert rule_ids(result) == ["REP006"]

    def test_ctx_mutation_is_the_sanctioned_pattern(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class ParseStage:
                name = "parse_page"
                timing_column = "parse_page"

                def run(self, ctx):
                    local = ctx.source.strip()
                    ctx.root = local
            """,
        )
        assert result.ok

    def test_non_stage_class_may_mutate_self(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Accumulator:
                def run(self, ctx):
                    self.total = ctx.value
            """,
        )
        assert result.ok


# -- REP007: print in library code --------------------------------------------


class TestRep007:
    def test_print_in_library_module_is_flagged(self, tmp_path):
        result = lint(tmp_path, "print('debug')\n")
        assert rule_ids(result) == ["REP007"]

    def test_cli_module_is_allowlisted(self, tmp_path):
        assert lint(tmp_path, "print('output')\n", rel="src/repro/cli.py").ok

    def test_scripts_outside_the_package_are_out_of_scope(self, tmp_path):
        assert lint(tmp_path, "print('demo')\n", rel="examples/demo.py").ok


# -- REP008: unnamed threads --------------------------------------------------


class TestRep008:
    def test_unnamed_thread_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import threading
            t = threading.Thread(target=lambda: None)
            """,
        )
        assert rule_ids(result) == ["REP008"]

    def test_bare_thread_import_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            from threading import Thread
            t = Thread(target=lambda: None, daemon=True)
            """,
        )
        assert rule_ids(result) == ["REP008"]

    def test_named_thread_passes(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import threading
            t = threading.Thread(target=lambda: None, name="serve-worker-0")
            """,
        )
        assert result.ok

    def test_other_thread_like_calls_are_ignored(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import threading
            e = threading.Event()
            lock = threading.Lock()
            """,
        )
        assert result.ok

    def test_tests_are_out_of_scope(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import threading
            t = threading.Thread(target=lambda: None)
            """,
            rel="tests/test_x.py",
        )
        assert result.ok


class TestRep010:
    FLEET = "src/repro/fleet/coordinator.py"

    def test_urllib_request_import_in_fleet_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            "import urllib.request\n",
            rel=self.FLEET,
        )
        assert rule_ids(result) == ["REP010"]
        assert "transport.py" in result.findings[0].message

    def test_socket_import_and_dial_are_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import socket
            conn = socket.create_connection(("node", 80))
            """,
            rel=self.FLEET,
        )
        assert rule_ids(result) == ["REP010", "REP010"]  # import + call

    def test_from_urllib_import_request_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            "from urllib import request, error\n",
            rel=self.FLEET,
        )
        assert rule_ids(result) == ["REP010", "REP010"]

    def test_from_urllib_request_import_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            "from urllib.request import urlopen\n",
            rel=self.FLEET,
        )
        assert rule_ids(result) == ["REP010"]

    def test_transport_module_is_the_sanctioned_seam(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            import socket
            import urllib.request
            from urllib.error import URLError
            """,
            rel="src/repro/fleet/transport.py",
        )
        assert result.ok

    def test_urllib_parse_and_http_server_stay_allowed(self, tmp_path):
        result = lint(
            tmp_path,
            """\
            from http.server import ThreadingHTTPServer
            from urllib.parse import urlsplit

            parts = urlsplit("http://node:80/metrics")
            """,
            rel="src/repro/fleet/http.py",
        )
        assert result.ok

    def test_modules_outside_fleet_are_out_of_scope(self, tmp_path):
        result = lint(tmp_path, "import urllib.request\nimport socket\n")
        assert result.ok


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression_silences_the_finding(self, tmp_path):
        result = lint(
            tmp_path,
            "import time\n"
            "t = time.time()  # reprolint: disable=REP001 -- boot banner\n",
        )
        assert result.ok

    def test_suppression_on_wrong_line_does_not_apply(self, tmp_path):
        result = lint(
            tmp_path,
            "import time\n"
            "# reprolint: disable=REP001\n"
            "t = time.time()\n",
        )
        assert set(rule_ids(result)) == {"REP001", SUPPRESSION_RULE_ID}

    def test_unused_suppression_is_a_finding(self, tmp_path):
        result = lint(
            tmp_path,
            "value = 1  # reprolint: disable=REP002\n",
        )
        assert rule_ids(result) == [SUPPRESSION_RULE_ID]
        assert "unused suppression" in result.findings[0].message

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        result = lint(
            tmp_path,
            "value = 1  # reprolint: disable=REP404\n",
        )
        assert rule_ids(result) == [SUPPRESSION_RULE_ID]
        assert "unknown rule" in result.findings[0].message

    def test_retired_rule_id_is_unknown(self, tmp_path):
        # REP009 fenced the tokenize() list shim and was retired with it.
        result = lint(
            tmp_path,
            "value = 1  # reprolint: disable=REP009\n",
        )
        assert rule_ids(result) == [SUPPRESSION_RULE_ID]
        assert "unknown rule REP009" in result.findings[0].message

    def test_one_comment_may_suppress_multiple_rules(self, tmp_path):
        result = lint(
            tmp_path,
            "import time, random\n"
            "x = (time.time(), random.random())"
            "  # reprolint: disable=REP001,REP002 -- demo fixture\n",
        )
        assert result.ok

    def test_directive_inside_a_string_is_ignored(self, tmp_path):
        result = lint(
            tmp_path,
            'text = "# reprolint: disable=REP001"\n',
        )
        assert result.ok


# -- engine odds and ends -----------------------------------------------------


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        result = lint(tmp_path, "def broken(:\n")
        assert rule_ids(result) == [SYNTAX_RULE_ID]

    def test_clean_tree_scans_clean(self, tmp_path):
        result = lint(tmp_path, "x = 1\n")
        assert result.ok
        assert result.files_scanned == 1

    def test_path_matches_anchors_at_directory_boundaries(self):
        assert path_matches("src/repro/fetch/base.py", ("repro/fetch/base.py",))
        assert path_matches("repro/fetch/base.py", ("repro/fetch/base.py",))
        assert not path_matches(
            "src/otherrepro/fetch/base.py", ("repro/fetch/base.py",)
        )
        assert path_matches("src/repro/analysis/cli.py", ("repro/analysis/*",))

    def test_dotted_name_resolution(self):
        import ast

        expr = ast.parse("a.b.c()").body[0].value
        assert dotted_name(expr.func) == "a.b.c"
        dynamic = ast.parse("a().b()").body[0].value
        assert dotted_name(dynamic.func) is None

    def test_lock_expression_heuristic(self):
        import ast

        def ctx(source: str):
            return ast.parse(source).body[0].items[0].context_expr

        assert is_lock_expr(ctx("with self._lock: pass"))
        assert is_lock_expr(ctx("with registry_lock: pass"))
        assert not is_lock_expr(ctx("with open('f') as h: pass"))


# -- reporters ----------------------------------------------------------------


class TestReporters:
    def test_json_schema(self, tmp_path):
        result = lint(tmp_path, "import time\nt = time.time()\n")
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"REP001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "REP001"
        assert finding["line"] == 2

    def test_text_report_lines_and_summary(self, tmp_path):
        result = lint(tmp_path, "import time\nt = time.time()\n")
        text = render_text(result)
        assert f"{LIB}:2:" in text
        assert "REP001" in text
        assert "1 finding(s)" in text

    def test_clean_text_report_says_clean(self, tmp_path):
        result = lint(tmp_path, "x = 1\n")
        assert "clean" in render_text(result)


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def write(self, tmp_path: Path, code: str) -> Path:
        target = tmp_path / LIB
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
        return target

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self.write(tmp_path, "x = 1\n")
        assert main([str(tmp_path / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self.write(tmp_path, "import time\nt = time.time()\n")
        assert main([str(tmp_path / "src")]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule_selection(self, tmp_path, capsys):
        self.write(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "src"), "--select", "REP404"])
        assert excinfo.value.code == 2

    def test_exit_two_without_paths(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_select_restricts_the_rule_set(self, tmp_path, capsys):
        self.write(tmp_path, "import time\nt = time.time()\n")
        assert main([str(tmp_path / "src"), "--select", "REP002"]) == 0

    def test_json_format_flag(self, tmp_path, capsys):
        self.write(tmp_path, "import time\nt = time.time()\n")
        assert main([str(tmp_path / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"REP001": 1}

    def test_list_rules_documents_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out
