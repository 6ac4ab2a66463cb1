"""Command-line interface (the "user or application" entry point of Fig. 3).

Usage::

    omini extract PAGE.html|URL [PAGE2.html|URL ...] [--site NAME --rules RULES.json]
                  [--workers N] [--json]
                  [--timeout S --retries N --max-bytes B --fetch-cache DIR]
                  [--trace TRACE.json --metrics-out METRICS.txt]
    omini tree PAGE.html [--metrics] [--depth N]
    omini rank PAGE.html              # subtree + separator rankings
    omini corpus OUTDIR [--split test|experimental|all] [--pages N]
    omini wrap-generate SITE SAMPLE.html [SAMPLE2.html ...] -o WRAPPER.json
    omini wrap-apply WRAPPER.json PAGE.html [--json]
    omini diff OLD.html NEW.html
    omini serve [--port 8080 --workers N --rules RULES.json --corpus DIR]
    omini fleet [--port 8090 --nodes 3 | --member URL ...]
    omini --version

``extract`` runs the full three-phase pipeline and prints one object per
block; given several pages (or ``--workers N``) it switches to the
concurrent batch engine and reports per-page outcomes plus throughput
counters; ``tree`` prints the Phase 1 tag tree (Figures 1/5 style); ``rank``
shows the Phase 2 evidence (how each heuristic voted); ``corpus``
materializes the synthetic evaluation corpus to disk; the ``wrap-*``
commands drive the Section 7 wrapper-generation layer.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.pipeline import OminiExtractor
from repro.core.rules import RuleStore
from repro.core.separator.base import build_context
from repro.core.subtree.combined import CombinedSubtreeFinder
from repro.core.subtree.fanout import HFHeuristic
from repro.core.subtree.size_increase import GSIHeuristic
from repro.core.subtree.tag_count import LTCHeuristic
from repro.tree.builder import parse_document
from repro.tree.render import render_tree


def _is_url(page: str) -> bool:
    return page.startswith(("http://", "https://"))


def _build_fetcher(args: argparse.Namespace, observer=None):
    """The acquisition stack for URL pages: HTTP + optional on-disk cache."""
    from repro.fetch.cache import CachingFetcher
    from repro.fetch.http import DEFAULT_MAX_BYTES, HttpFetcher

    max_bytes = getattr(args, "max_bytes", None)
    if max_bytes is None:
        max_bytes = DEFAULT_MAX_BYTES
    elif max_bytes <= 0:
        max_bytes = None  # 0 disables the cap
    fetcher = HttpFetcher(
        timeout=args.timeout,
        retries=args.retries,
        max_bytes=max_bytes,
        observer=observer,
    )
    if args.fetch_cache:
        fetcher = CachingFetcher(fetcher, args.fetch_cache, observer=observer)
    return fetcher


def _build_observability(args: argparse.Namespace):
    """A tracing adapter when ``--trace``/``--metrics-out`` asked for one."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics_out", None)):
        return None
    from repro.observe.adapter import TracingInstrumentation

    return TracingInstrumentation()


def _write_observability(args: argparse.Namespace, adapter) -> None:
    """Export the trace/metrics files the flags requested."""
    if adapter is None:
        return
    if args.trace:
        from repro.observe.span import write_trace

        write_trace(adapter.tracer.spans, args.trace)
        print(f"wrote {len(adapter.tracer.spans)} spans to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        text = (
            adapter.metrics.to_json()
            if args.metrics_out.endswith(".json")
            else adapter.metrics.to_text()
        )
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)


def _cmd_extract(args: argparse.Namespace) -> int:
    store = RuleStore(args.rules) if args.rules else None
    if len(args.page) > 1 or args.workers > 1 or any(map(_is_url, args.page)):
        return _extract_batch(args, store)
    adapter = _build_observability(args)
    extractor = OminiExtractor(rule_store=store, instrumentation=adapter)
    result = extractor.extract_file(args.page[0], site=args.site)
    _write_observability(args, adapter)
    if store is not None and args.rules:
        store.save()
    if args.json:
        payload = {
            "subtree": result.subtree_path,
            "separator": result.separator,
            "candidates": result.candidate_objects,
            "objects": [obj.text() for obj in result.objects],
            "used_cached_rule": result.used_cached_rule,
            "timings_ms": result.timings.as_milliseconds(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"subtree:   {result.subtree_path}")
    print(f"separator: {result.separator}")
    print(f"objects:   {len(result.objects)} (from {result.candidate_objects} candidates)")
    if result.used_cached_rule:
        print("(extracted via cached rule)")
    for index, obj in enumerate(result.objects, 1):
        print(f"\n--- object {index} ---")
        print(obj.text())
    return 0


def _extract_batch(args: argparse.Namespace, store: RuleStore | None) -> int:
    """Many pages (or --workers): run the concurrent batch engine."""
    from repro.core.batch import BatchExtractor, FailedExtraction, PageTask

    tasks = [
        PageTask(url=page, site=args.site)
        if _is_url(page)
        else PageTask(path=page, site=args.site)
        for page in args.page
    ]
    adapter = _build_observability(args)
    fetcher = (
        _build_fetcher(args, observer=adapter) if any(t.url for t in tasks) else None
    )
    batch = BatchExtractor(rule_store=store, fetcher=fetcher, instrumentation=adapter)
    outcome = batch.extract_many(tasks, workers=args.workers)
    _write_observability(args, adapter)
    if store is not None and args.rules:
        store.save()

    if args.json:
        payloads = []
        for task, result in zip(tasks, outcome.results, strict=True):
            if isinstance(result, FailedExtraction):
                payloads.append(
                    {
                        "page": result.page,
                        "error": result.error,
                        "error_type": result.error_type,
                        "kind": result.kind,
                    }
                )
            else:
                payloads.append(
                    {
                        "page": str(task.path or task.url),
                        "subtree": result.subtree_path,
                        "separator": result.separator,
                        "candidates": result.candidate_objects,
                        "objects": [obj.text() for obj in result.objects],
                        "used_cached_rule": result.used_cached_rule,
                        "timings_ms": result.timings.as_milliseconds(),
                    }
                )
        print(json.dumps({"pages": payloads, "stats": outcome.stats.as_dict()}, indent=2))
    else:
        for task, result in zip(tasks, outcome.results, strict=True):
            page = task.path or task.url
            if isinstance(result, FailedExtraction):
                print(f"{page}: FAILED [{result.kind}] ({result.error_type}: {result.error})")
            else:
                cached = " [cached rule]" if result.used_cached_rule else ""
                print(
                    f"{page}: {len(result.objects)} objects via "
                    f"<{result.separator}> at {result.subtree_path}{cached}"
                )
        stats = outcome.stats
        print(
            f"\n{stats.pages} pages in {stats.elapsed:.2f}s "
            f"({stats.pages_per_second:.1f} pages/s), "
            f"{stats.failed} failed, {stats.cached_rule_hits} cached-rule hits"
        )
    return 0 if not outcome.failures else 1


def _cmd_tree(args: argparse.Namespace) -> int:
    with open(args.page, encoding="utf-8", errors="replace") as handle:
        root = parse_document(handle.read())
    print(
        render_tree(
            root,
            metrics=args.metrics,
            max_depth=args.depth,
            show_text=not args.no_text,
        )
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    with open(args.page, encoding="utf-8", errors="replace") as handle:
        root = parse_document(handle.read())
    print("subtree rankings (top 5):")
    for heuristic in (HFHeuristic(), GSIHeuristic(), LTCHeuristic(), CombinedSubtreeFinder()):
        rows = heuristic.rank(root, limit=5)
        print(f"  {heuristic.name}:")
        for entry in rows:
            print(f"    {entry.score:12.2f}  {entry.path}")
    chosen = CombinedSubtreeFinder().choose(root)
    context = build_context(chosen)
    extractor = OminiExtractor()
    print("\nseparator rankings on the chosen subtree:")
    for heuristic in extractor.separator_finder.heuristics:
        ranking = heuristic.rank(context)
        tags = ", ".join(f"{r.tag}({r.detail})" for r in ranking[:4])
        print(f"  {heuristic.name}: {tags or '(no answer)'}")
    combined = extractor.separator_finder.rank(context)
    print("  combined:", ", ".join(f"{r.tag}={r.score:.3f}" for r in combined[:5]))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.fetcher import PageCache
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.sites import EXPERIMENTAL_SITES, TEST_SITES

    split = {
        "test": TEST_SITES,
        "experimental": EXPERIMENTAL_SITES,
        "all": TEST_SITES + EXPERIMENTAL_SITES,
    }[args.split]
    cache = PageCache(args.outdir)
    generator = CorpusGenerator(max_pages_per_site=args.pages)
    count = cache.populate(split, generator)
    print(f"wrote {count} pages under {cache.root}")
    return 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _cmd_wrap_generate(args: argparse.Namespace) -> int:
    from repro.wrapper.wrapper import WrapperError, generate_wrapper

    try:
        wrapper = generate_wrapper(args.site, [_read(p) for p in args.samples])
    except WrapperError as exc:
        print(f"wrapper generation failed: {exc}")
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(wrapper.to_json())
    print(
        f"wrote {args.output}: {wrapper.rule.subtree_path} / "
        f"<{wrapper.rule.separator}> "
        f"(consensus {wrapper.consensus:.0%} over {wrapper.sample_pages} samples)"
    )
    return 0


def _cmd_wrap_apply(args: argparse.Namespace) -> int:
    from repro.wrapper.wrapper import Wrapper, WrapperError

    wrapper = Wrapper.from_json(_read(args.wrapper))
    try:
        records = wrapper.wrap(_read(args.page))
    except WrapperError as exc:
        print(f"wrapper is stale: {exc}")
        print("regenerate it with: omini wrap-generate "
              f"{wrapper.site} <fresh samples> -o {args.wrapper}")
        return 2
    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2))
        return 0
    print(f"{len(records)} records from {wrapper.site}:")
    for record in records:
        print(f"  • {record.title}")
        if record.url:
            print(f"    url: {record.url}")
        details = " | ".join(x for x in (record.price, record.byline) if x)
        if details:
            print(f"    {details}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.tree.builder import parse_document as _parse
    from repro.tree.diff import diff_trees

    old = _parse(_read(args.old))
    new = _parse(_read(args.new))
    changes = diff_trees(old, new, compare_attrs=args.attrs)
    if not changes:
        print("no structural differences")
        return 0
    for change in changes:
        print(f"{change.kind:9s} {change.path}  {change.detail}")
    return 0


def _package_version() -> str:
    """The installed distribution version, or the source tree's fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omini",
        description="Omini: fully automated object extraction from Web pages",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract objects from HTML files or URLs")
    p.add_argument(
        "page",
        nargs="+",
        help="HTML file path(s) and/or http(s) URL(s); several switch to batch mode",
    )
    p.add_argument("--site", help="site key for rule caching")
    p.add_argument("--rules", help="JSON rule-store path (enables Section 6.6 caching)")
    p.add_argument("--workers", type=int, default=1, help="batch-mode worker threads")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--timeout", type=float, default=10.0, help="per-request fetch timeout (seconds)"
    )
    p.add_argument(
        "--retries", type=int, default=2, help="fetch retries after the first attempt"
    )
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="fetch body-size cap in bytes (default 10 MiB; 0 disables)",
    )
    p.add_argument(
        "--fetch-cache",
        metavar="DIR",
        help="TTL'd on-disk fetch cache directory for URL pages",
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="write a hierarchical span trace (JSON) of the run",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write metrics (flat 'key value' text, or JSON for *.json paths)",
    )
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("tree", help="print the tag tree of a page")
    p.add_argument("page")
    p.add_argument("--metrics", action="store_true", help="annotate fanout/size/tags")
    p.add_argument("--depth", type=int, default=None, help="maximum depth")
    p.add_argument("--no-text", action="store_true", help="hide content nodes")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("rank", help="show subtree and separator rankings")
    p.add_argument("page")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("corpus", help="materialize the synthetic corpus")
    p.add_argument("outdir")
    p.add_argument("--split", choices=("test", "experimental", "all"), default="test")
    p.add_argument("--pages", type=int, default=None, help="cap pages per site")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("wrap-generate", help="generate a site wrapper from samples")
    p.add_argument("site")
    p.add_argument("samples", nargs="+", help="sample result pages (HTML files)")
    p.add_argument("-o", "--output", required=True, help="wrapper JSON path")
    p.set_defaults(func=_cmd_wrap_generate)

    p = sub.add_parser("wrap-apply", help="apply a generated wrapper to a page")
    p.add_argument("wrapper", help="wrapper JSON path")
    p.add_argument("page", help="HTML file to wrap")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_wrap_apply)

    p = sub.add_parser("diff", help="structural diff of two pages")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--attrs", action="store_true", help="also compare attributes")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("serve", help="run the long-running extraction service")
    from repro.serve.__main__ import add_serve_arguments, run as _run_serve

    add_serve_arguments(p)
    p.set_defaults(func=_run_serve)

    p = sub.add_parser(
        "fleet", help="route extraction across a multi-node serve fleet"
    )
    from repro.fleet.__main__ import add_fleet_arguments, run as _run_fleet

    add_fleet_arguments(p)
    p.set_defaults(func=_run_fleet)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
