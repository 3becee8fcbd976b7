"""Shared config/input matrix and bit-identity comparators.

Moved from ``tests/sort/test_pairwise_equivalence.py`` when the
per-scoring equivalence matrices were collapsed into the engine suite
(``tests/engine/test_engine_equivalence.py``); the sort-layer tests
import the helpers from here so every suite compares results the same
way: same sorted values, same round structure, same conflict counters,
same per-step cost arrays.
"""

import numpy as np

from repro.sort.config import SortConfig

CONFIGS = {
    "tiny": SortConfig(elements_per_thread=3, block_size=8, warp_size=4),
    "small-e": SortConfig(elements_per_thread=3, block_size=16, warp_size=8),
    "large-e": SortConfig(elements_per_thread=5, block_size=16, warp_size=8),
    "pow2-e": SortConfig(elements_per_thread=4, block_size=16, warp_size=8),
}

#: Every input family the generators produce, structured and not.
INPUTS = ["random", "sorted", "reverse", "few-unique", "sawtooth", "worst-case"]

#: The analytic-eligible constructed families (kept in sync with
#: ``repro.analytic.ANALYTIC_FAMILIES`` by ``test_engine_equivalence``).
FAMILIES = ["reverse", "sawtooth", "sorted", "worst-case"]


def assert_reports_identical(a, b, context):
    assert a.num_banks == b.num_banks, context
    assert a.num_steps == b.num_steps, context
    assert a.num_accesses == b.num_accesses, context
    assert a.num_requests == b.num_requests, context
    assert a.total_transactions == b.total_transactions, context
    assert a.total_replays == b.total_replays, context
    assert a.max_degree == b.max_degree, context
    np.testing.assert_array_equal(
        a.per_step_transactions, b.per_step_transactions, err_msg=context
    )


def assert_results_identical(rv, rl):
    np.testing.assert_array_equal(rv.values, rl.values)
    assert len(rv.rounds) == len(rl.rounds)
    for sv, sl in zip(rv.rounds, rl.rounds):
        assert sv.label == sl.label
        assert sv.kind == sl.kind
        assert sv.run_length == sl.run_length
        assert sv.blocks_total == sl.blocks_total
        assert sv.blocks_scored == sl.blocks_scored
        assert sv.compute_instructions == sl.compute_instructions
        assert sv.global_traffic == sl.global_traffic
        assert_reports_identical(sv.merge_report, sl.merge_report, sv.label)
        assert_reports_identical(
            sv.partition_report, sl.partition_report, sv.label
        )
        assert_reports_identical(sv.staging_report, sl.staging_report, sv.label)


def assert_segments_identical(a, b):
    """Every round's reports carry the same run-length step segments."""
    for ra, rb in zip(a.rounds, b.rounds, strict=True):
        for name in ("merge_report", "partition_report", "staging_report"):
            sa = getattr(ra, name).step_segments
            sb = getattr(rb, name).step_segments
            assert [(p.tobytes(), k) for p, k in sa] == [
                (p.tobytes(), k) for p, k in sb
            ], (ra.label, name)
