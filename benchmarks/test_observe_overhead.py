"""Observability overhead: a disabled adapter must cost (almost) nothing.

The tentpole's hot-path contract: every ``TracingInstrumentation`` hook
opens with ``if not self.enabled: return`` -- one attribute load and a
branch, no allocation -- so attaching the adapter with tracing off adds
under 5% to extraction wall-clock.

Methodology: a paired comparison.  One pair is one pass over the
workload in which every page runs through both arms -- the baseline (no
adapter) and the disabled adapter -- back to back, the arm that goes
first alternating from page to page and from pass to pass.  Both arms of
a page therefore share the machine's state of that millisecond, which
cancels the slow drift a shared box adds to whole-batch timings.  Each
pass starts from ``gc.collect()`` and runs with the collector disabled,
so a collection pause lands in neither arm.  The gate is the median of
the per-pass ratios: a noisy neighbour spoils a pass, not the median.
"""

import gc
import statistics
import time

import pytest

from repro.core.batch import BatchExtractor, PageTask
from repro.corpus import CorpusGenerator, TEST_SITES
from repro.observe import TracingInstrumentation

pytestmark = pytest.mark.slow

PAIRS = 31
OVERHEAD_CEILING = 1.05  # < 5%


@pytest.fixture(scope="module")
def workload():
    pages = CorpusGenerator(max_pages_per_site=3).generate(TEST_SITES[:8])
    return [
        PageTask(source=page.html, site=page.site, page_id=f"p{index}")
        for index, page in enumerate(pages)
    ]


def _run(tasks, instrumentation):
    batch = BatchExtractor(instrumentation=instrumentation)
    start = time.perf_counter()
    outcome = batch.extract_many(tasks, workers=1)
    elapsed = time.perf_counter() - start
    assert not outcome.failures
    return elapsed


def _paired_pass(tasks, disabled, offset):
    """One pass, both arms per page; returns adapter / baseline seconds."""
    baseline = adapter = 0.0
    gc.collect()
    gc.disable()
    try:
        for index, task in enumerate(tasks):
            if (index + offset) % 2:
                adapter += _run([task], disabled)
                baseline += _run([task], None)
            else:
                baseline += _run([task], None)
                adapter += _run([task], disabled)
    finally:
        gc.enable()
    return adapter / baseline


def test_disabled_adapter_overhead_under_5_percent(workload):
    disabled = TracingInstrumentation(enabled=False)
    _run(workload, None)  # warm-up: parser caches, imports, allocator
    _run(workload, disabled)
    ratios = [_paired_pass(workload, disabled, pair) for pair in range(PAIRS)]
    ratio = statistics.median(ratios)
    print(
        f"\nmedian disabled-adapter/baseline ratio over {PAIRS} pairs: "
        f"{ratio:.3f} (min {min(ratios):.3f}, max {max(ratios):.3f})"
    )
    assert ratio < OVERHEAD_CEILING, (
        f"disabled tracing costs {(ratio - 1) * 100:.1f}% (ceiling 5%)"
    )
    # And nothing leaked into the disabled adapter.
    assert disabled.tracer.spans == []
    assert disabled.metrics.snapshot() == {"counters": {}, "histograms": {}}


def test_enabled_adapter_records_everything(workload):
    """Sanity companion: with tracing ON the same workload yields a full
    trace -- the overhead test is not passing because hooks are dead."""
    adapter = TracingInstrumentation()
    _run(workload, adapter)
    spans = adapter.tracer.spans
    assert len([s for s in spans if s.name == "page"]) == len(workload)
    assert adapter.metrics.counter("extract.pages").value == len(workload)
