"""Schedule determinism and the percentile rule."""

from __future__ import annotations

import pytest

import workloads
from loadgen import percentile, supported_quantile


@pytest.mark.parametrize("name", ["refetch_small_edit", "fleet_recrawl"])
def test_same_seed_gives_a_byte_identical_schedule(name):
    first = workloads.build(name, 5)
    second = workloads.build(name, 5)
    assert first.schedule_digest(200) == second.schedule_digest(200)
    assert first.reference_digest() == second.reference_digest()
    assert [item.payload for item in first.replay_items(50)] == [
        item.payload for item in second.replay_items(50)
    ]


def test_another_seed_gives_other_pages():
    assert (
        workloads.build("fleet_recrawl", 5).schedule_digest(200)
        != workloads.build("fleet_recrawl", 6).schedule_digest(200)
    )


def test_every_scheduled_request_has_the_input_property():
    workload = workloads.build("refetch_small_edit", 5)
    assert workload.with_property == workload.candidates
    for first, sequence in zip(workload.warmup, workload.sequences.values(), strict=True):
        bodies = [first.html] + [item.html for item in sequence]
        for old, new in zip(bodies, bodies[1:], strict=False):
            assert len(old) == len(new)
            assert sum(a != b for a, b in zip(old, new, strict=True)) == 1


def test_cursor_continues_each_site_across_phases():
    workload = workloads.build("fleet_recrawl", 5)
    site = workload.sites[0]
    cursor = workload.cursor()
    sequence = workload.sequences[site]
    seen = [cursor.next(site) for _ in range(len(sequence) + 1)]
    assert seen[: len(sequence)] == sequence
    assert seen[-1] == sequence[0]


@pytest.mark.parametrize(
    ("count", "wanted", "expected"),
    [
        (1000, 0.95, 0.95),
        (200, 0.95, 0.95),  # exactly ten samples beyond the p95
        (199, 0.95, 0.90),
        (100, 0.95, 0.90),
        (40, 0.95, 0.75),
        (19, 0.95, 0.50),  # too few for any tail: the median
        (1000, 0.50, 0.50),
        (1000, 0.99, 0.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, wanted, expected):
    assert supported_quantile(count, wanted) == expected


def test_percentile_is_nearest_rank():
    values = [float(value) for value in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    assert percentile(values, 0.50) == 100.0
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
