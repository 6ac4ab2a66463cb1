"""The metasearch portal facade (the paper's motivating application).

:class:`MetaSearch` is the end-to-end demonstration the paper's Section 7
promises: register content providers, and the service

1. generates a wrapper for each provider automatically (Omini discovery
   over a few sample pages -- no per-site code),
2. on each query, forwards the search to every provider,
3. wraps every result page into normalized records (self-healing: a stale
   wrapper is regenerated from the failing page, Section 6.6's evolution
   loop),
4. deduplicates and ranks the merged records.

The scalability claim this architecture supports (Section 1: existing
integration services "have a hard time to effectively incorporate
additional or new content providers") reduces to: `register()` is the whole
onboarding cost of a new provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aggregate.merge import MergedRecord, dedupe_records, rank_records
from repro.aggregate.sources import ContentProvider
from repro.core.batch import parallel_map
from repro.core.stages.config import ExtractorConfig
from repro.wrapper.wrapper import Wrapper, WrapperError, generate_wrapper


@dataclass
class SearchResult:
    """One metasearch response."""

    query: str
    records: list[MergedRecord]
    #: Providers that answered / failed on this query.
    sites_searched: list[str] = field(default_factory=list)
    sites_failed: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


class MetaSearch:
    """An integration service over any number of content providers.

    ``workers`` fans each query out to the providers concurrently (the
    heavy-traffic posture: provider latency overlaps instead of summing);
    ``config`` is the consolidated pipeline configuration used when
    generating and regenerating wrappers.
    """

    def __init__(
        self,
        *,
        sample_count: int = 3,
        dedupe_threshold: float = 0.6,
        workers: int = 1,
        config: ExtractorConfig | None = None,
    ) -> None:
        self.sample_count = sample_count
        self.dedupe_threshold = dedupe_threshold
        self.workers = workers
        self.config = config
        self._providers: dict[str, ContentProvider] = {}
        self._wrappers: dict[str, Wrapper] = {}

    # -- provider management ------------------------------------------------

    def register(self, provider: ContentProvider) -> Wrapper:
        """Onboard a provider: generate its wrapper from sample pages.

        This one call is the entire per-site integration cost -- the
        paper's scalability argument in executable form.
        """
        samples = self._sample_pages(provider)
        wrapper = generate_wrapper(provider.name, samples, config=self.config)
        self._providers[provider.name] = provider
        self._wrappers[provider.name] = wrapper
        return wrapper

    def sites(self) -> list[str]:
        """Registered provider names, sorted."""
        return sorted(self._providers)

    def wrapper_for(self, site: str) -> Wrapper:
        return self._wrappers[site]

    # -- searching ------------------------------------------------------------

    def search(self, query: str) -> SearchResult:
        """Fan one query out to every provider; merge and rank the results.

        With ``workers > 1`` the providers are queried concurrently;
        results are gathered in registration order either way, so ranking
        is deterministic.
        """
        providers = list(self._providers.items())

        def ask(item: tuple[str, ContentProvider]):
            name, provider = item
            try:
                return name, self._wrap_with_healing(name, provider, query)
            except WrapperError:
                return name, None

        answers = parallel_map(ask, providers, workers=self.workers)
        gathered: list[tuple[str, object]] = []
        searched: list[str] = []
        failed: list[str] = []
        for name, records in answers:
            if records is None:
                failed.append(name)
                continue
            searched.append(name)
            gathered.extend((name, record) for record in records)
        merged = dedupe_records(gathered, threshold=self.dedupe_threshold)
        ranked = rank_records(merged, query)
        return SearchResult(
            query=query,
            records=ranked,
            sites_searched=searched,
            sites_failed=failed,
        )

    # -- internals -------------------------------------------------------------

    def _sample_pages(self, provider: ContentProvider) -> list[str]:
        sampler = getattr(provider, "sample_pages", None)
        if callable(sampler):
            return sampler(self.sample_count)
        # Generic providers: sample with throwaway queries.
        return [
            provider.search(f"__sample_{index}")
            for index in range(self.sample_count)
        ]

    def _wrap_with_healing(self, name: str, provider: ContentProvider, query: str):
        """Apply the wrapper; on staleness, regenerate once and retry.

        The automated "wrapper evolution" loop of Section 7: a redesigned
        site breaks the cached rule, and the service re-learns it from the
        very page that failed.
        """
        page = provider.search(query)
        try:
            return self._wrappers[name].wrap(page)
        except WrapperError:
            self._wrappers[name] = generate_wrapper(name, [page])
            return self._wrappers[name].wrap(page)
