"""Synthetic web corpus (substitute for the paper's 1999-2000 crawl).

The paper's evaluation ran on ~2,000 pages cached from ~50 commercial sites
(Section 6.3, Tables 9/12/21-23).  Those caches no longer exist, so this
package regenerates an equivalent corpus deterministically:

* :mod:`repro.corpus.fixtures` -- hand-built reproductions of the paper's
  two running examples (Library of Congress, Figures 1/2; canoe.com,
  Figures 4/5) that reproduce Tables 1, 2, 3, 6, 7 and 8 exactly;
* :mod:`repro.corpus.dictionary` -- the "100 random words from the standard
  Unix dictionary" used as search queries;
* :mod:`repro.corpus.templates` -- page-layout families (table rows, nested
  tables, hr/pre listings, ul/ol lists, dl listings, p/div blocks);
* :mod:`repro.corpus.noise` -- period-appropriate page chrome (nav bars, ad
  banners, search forms, footers) and tag-soup malformation injection;
* :mod:`repro.corpus.sites` -- the 50-site manifest mirroring Table 23;
* :mod:`repro.corpus.generator` -- seeded page generation with ground truth;
* :mod:`repro.corpus.fetcher` -- the local fetch/cache layer (the paper ran
  all experiments on local copies of the pages).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.corpus.adversarial": (
            "CATEGORIES", "AdversarialCorpusGenerator", "AdversarySiteSpec",
            "synthesize_sites",
        ),
        "repro.corpus.fetcher": ("PageCache",),
        "repro.corpus.generator": ("CorpusGenerator", "LabeledPage"),
        "repro.corpus.ground_truth": ("GroundTruth",),
        "repro.corpus.sites": (
            "EXPERIMENTAL_SITES", "HARD_SITES", "SiteSpec", "TEST_SITES", "all_sites",
            "site_by_name",
        ),
    },
)

__all__ = [
    "CATEGORIES",
    "AdversarialCorpusGenerator",
    "AdversarySiteSpec",
    "CorpusGenerator",
    "EXPERIMENTAL_SITES",
    "GroundTruth",
    "HARD_SITES",
    "LabeledPage",
    "PageCache",
    "SiteSpec",
    "TEST_SITES",
    "all_sites",
    "site_by_name",
    "synthesize_sites",
]
