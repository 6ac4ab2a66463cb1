"""Boot the extraction service: ``python -m repro.serve --port 8080``.

Wires the pieces together and owns the process-level concerns the
runtime deliberately does not know about: argument parsing, the listening
socket, POSIX signals, and the final metrics export.

Shutdown contract (what the CI smoke job asserts): SIGTERM or SIGINT
flips one event; the main thread then stops the listener, drains the
runtime (finish in-flight requests, flush learned rules to disk, advance
the lifecycle to STOPPED), optionally writes a last metrics snapshot, and
exits 0.

Deadline propagation: the HTTP transport timeout is capped at the serve
deadline, so a single stalled origin read can never hold a worker past
the budget its request was admitted with.

:func:`add_serve_arguments` and :func:`run` are importable so the
``omini serve`` CLI subcommand reuses exactly this surface without
duplicating flags.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from repro.core.rules import RuleStore
from repro.fetch.base import FetchHttpError, FetchResult, Fetcher
from repro.serve.runtime import ServeConfig, ServeRuntime
from repro.serve.server import ExtractionHTTPServer, ServeRuntimeLike

__all__ = ["CorpusFetcher", "add_serve_arguments", "main", "run"]


class CorpusFetcher:
    """Serve a materialized corpus directory as if it were the web.

    ``http://<site>/<page>.html`` maps to ``<root>/<site>/<page>.html``;
    anything that does not resolve to a file inside the corpus answers a
    404 :class:`FetchHttpError`.  This keeps the smoke job and local
    experiments fully offline while exercising the real URL request path.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        parts = urlsplit(url)
        relative = parts.path.lstrip("/")
        if not parts.netloc or not relative:
            raise FetchHttpError(f"corpus URL must be http://<site>/<page>: {url}",
                                 url=url, status=404)
        target = (self.root / parts.netloc / relative).resolve()
        if not target.is_relative_to(self.root) or not target.is_file():
            raise FetchHttpError(f"not in corpus: {url}", url=url, status=404)
        body = target.read_text(encoding="utf-8")
        return FetchResult.of(url, body, site=site if site is not None else parts.netloc)


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the serve flags (shared by ``python -m repro.serve`` and
    the ``omini serve`` subcommand)."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080, help="bind port")
    parser.add_argument("--workers", type=int, default=4, help="worker pool size")
    parser.add_argument(
        "--workers-mode", choices=("thread", "process"), default="thread",
        help="thread: one process, deterministic, GIL-bound; process: "
        "pre-forked extraction shards routed by site hash (Linux)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission queue bound (full queue answers 429)",
    )
    parser.add_argument(
        "--deadline", type=float, default=10.0,
        help="default per-request budget in seconds",
    )
    parser.add_argument(
        "--retry-after", type=float, default=1.0,
        help="seconds suggested in 429 Retry-After answers",
    )
    parser.add_argument("--rules", help="JSON rule store path (write-behind)")
    parser.add_argument(
        "--corpus", help="serve pages from this corpus directory instead of HTTP"
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP transport timeout"
    )
    parser.add_argument("--retries", type=int, default=2, help="HTTP fetch retries")
    parser.add_argument(
        "--fetch-cache", help="on-disk fetch cache directory for URL requests"
    )
    parser.add_argument(
        "--no-tracing", action="store_true", help="disable span collection"
    )
    parser.add_argument(
        "--metrics-out", help="write a final metrics snapshot here on shutdown"
    )


def _build_fetcher(args: argparse.Namespace) -> Fetcher:
    if args.corpus:
        return CorpusFetcher(args.corpus)
    from repro.fetch.cache import CachingFetcher
    from repro.fetch.http import HttpFetcher

    fetcher: Fetcher = HttpFetcher(
        timeout=min(args.timeout, args.deadline), retries=args.retries
    )
    if args.fetch_cache:
        fetcher = CachingFetcher(fetcher, args.fetch_cache)
    return fetcher


def run(args: argparse.Namespace) -> int:
    """Boot, serve until SIGTERM/SIGINT, drain, exit 0."""
    import signal

    config = ServeConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        retry_after=args.retry_after,
        tracing=not args.no_tracing,
    )
    cls: Callable[..., ServeRuntimeLike] = ServeRuntime
    if getattr(args, "workers_mode", "thread") == "process":
        from repro.serve.procpool import ProcessServeRuntime

        cls = ProcessServeRuntime
    runtime = cls(
        config,
        fetcher=_build_fetcher(args),
        rule_store=RuleStore(args.rules) if args.rules else None,
    )
    server = ExtractionHTTPServer((args.host, args.port), runtime)
    runtime.start()

    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    listener = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    listener.start()
    host, port = server.server_address[:2]
    sys.stderr.write(f"repro.serve listening on http://{host}:{port}\n")

    stop.wait()
    sys.stderr.write("repro.serve draining...\n")
    server.shutdown()
    listener.join(timeout=10.0)
    server.server_close()
    runtime.drain()
    if args.metrics_out:
        text = (
            runtime.metrics.to_json()
            if args.metrics_out.endswith(".json")
            else runtime.metrics.to_text()
        )
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    sys.stderr.write("repro.serve stopped cleanly\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="long-running HTTP extraction service (stdlib only)",
    )
    add_serve_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
