"""Self-contained site wrappers generated from Omini extractions.

A :class:`Wrapper` packages everything needed to turn a site's result pages
into normalized records without re-running discovery: the learned extraction
rule (minimal-subtree path + separator + construction mode), the field
decomposition, and provenance (how many sample pages agreed when the
wrapper was generated).  It serializes to a small JSON spec -- the artifact
a wrapper-generation system like XWRAP Elite would store per content
provider -- and it *evolves*: when the site's structure changes, applying
the wrapper raises :class:`WrapperError` and :func:`generate_wrapper` can be
re-run on fresh sample pages, which is exactly the maintenance loop the
paper promises to automate ("the wrapper generation and evolution process",
Section 7).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.objects import construct_objects
from repro.core.pipeline import OminiExtractor
from repro.core.refinement import RefinementConfig, refine_objects
from repro.core.rules import ExtractionRule, StaleRuleError
from repro.tree.builder import parse_document
from repro.wrapper.fields import FieldExtractor, ObjectFields

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stages.config import ExtractorConfig


class WrapperError(RuntimeError):
    """Wrapper generation or application failed (site changed, no consensus)."""


@dataclass
class Wrapper:
    """A generated, serializable wrapper for one site."""

    site: str
    rule: ExtractionRule
    #: Number of sample pages that agreed on the rule at generation time.
    sample_pages: int = 0
    #: Fraction of sample pages agreeing (1.0 = unanimous).
    consensus: float = 1.0
    refinement: RefinementConfig = field(default_factory=RefinementConfig)

    def wrap(self, html: str) -> list[ObjectFields]:
        """Apply the wrapper: page text in, normalized records out.

        Raises :class:`WrapperError` when the cached structure no longer
        matches (the site redesigned) so callers can trigger regeneration.
        """
        root = parse_document(html)
        try:
            subtree = self.rule.apply(root)
        except StaleRuleError as exc:
            raise WrapperError(
                f"wrapper for {self.site!r} is stale: {exc}"
            ) from exc
        candidates = construct_objects(
            subtree, self.rule.separator, mode=self.rule.construction_mode
        )
        objects = refine_objects(candidates, self.refinement)
        return FieldExtractor().extract_all(objects)

    def diagnose(self, reference_html: str, failing_html: str) -> str:
        """Explain *why* the wrapper went stale, for maintenance logs.

        Diffs a known-good page against the failing one and names the
        shallowest structural change on or near the rule's path -- e.g.
        ``inserted at html[1].body[1].div[2]: <div> inserted`` for the
        classic results-table-wrapped-in-a-div redesign.
        """
        from repro.tree.diff import summarize_staleness

        old = parse_document(reference_html)
        new = parse_document(failing_html)
        return summarize_staleness(old, new, self.rule.subtree_path)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "site": self.site,
            "subtree_path": self.rule.subtree_path,
            "separator": self.rule.separator,
            "construction_mode": self.rule.construction_mode,
            "sample_pages": self.sample_pages,
            "consensus": self.consensus,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "Wrapper":
        data = json.loads(payload)
        rule = ExtractionRule(
            site=data["site"],
            subtree_path=data["subtree_path"],
            separator=data["separator"],
            construction_mode=data.get("construction_mode", "auto"),
        )
        return cls(
            site=data["site"],
            rule=rule,
            sample_pages=data.get("sample_pages", 0),
            consensus=data.get("consensus", 1.0),
        )


def generate_wrapper(
    site: str,
    sample_pages: list[str],
    *,
    extractor: OminiExtractor | None = None,
    config: "ExtractorConfig | None" = None,
    min_consensus: float = 0.6,
    workers: int = 1,
) -> Wrapper:
    """Learn a wrapper for ``site`` from sample result pages.

    Runs full Omini discovery on every sample (a malformed sample is
    isolated as a no-vote rather than aborting generation, and
    ``workers > 1`` discovers samples on threads), takes the majority
    (subtree-path, separator) pair, and records the consensus level.  A
    consensus below ``min_consensus`` means the samples disagree too much
    to trust a cached rule (mixed page types were supplied, or the site is
    mid-redesign) and raises :class:`WrapperError`.  Configure discovery
    with either a prebuilt ``extractor`` or a declarative ``config`` (not
    both).
    """
    from repro.core.batch import parallel_map

    if not sample_pages:
        raise WrapperError("no sample pages supplied")
    if extractor is not None and config is not None:
        raise ValueError("pass either extractor= or config=, not both")
    extractor = extractor or OminiExtractor.from_config(config)

    def discover(html: str):
        try:
            return extractor.extract(html)
        except Exception:  # noqa: BLE001 - a bad sample is a no-vote
            return None

    results = [r for r in parallel_map(discover, sample_pages, workers=workers) if r]
    votes: Counter[tuple[str, str]] = Counter()
    for result in results:
        if result.separator is None:
            continue  # a no-result page slipped into the samples
        votes[(result.subtree_path, result.separator)] += 1
    if not votes:
        raise WrapperError(
            f"no sample page of {site!r} yielded an extraction rule"
        )
    (subtree_path, separator), count = votes.most_common(1)[0]
    consensus = count / len(sample_pages)
    if consensus < min_consensus:
        raise WrapperError(
            f"samples disagree on {site!r}: best rule covers only "
            f"{consensus:.0%} of {len(sample_pages)} pages"
        )
    rule = ExtractionRule(
        site=site, subtree_path=subtree_path, separator=separator
    )
    return Wrapper(
        site=site,
        rule=rule,
        sample_pages=len(sample_pages),
        consensus=consensus,
        refinement=extractor.refinement,
    )
