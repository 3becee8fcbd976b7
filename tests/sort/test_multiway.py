"""Tests for the K-way merge sort substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.permutation import worst_case_permutation
from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.trace import NO_ACCESS, AccessTrace
from repro.errors import ValidationError
from repro.gpu.global_memory import CoalescingModel
from repro.inputs.generators import generate
from repro.mergepath.kernels import stack_warp_steps, thread_rank_addresses
from repro.sort.config import SortConfig
from repro.sort.multiway import MultiwaySort
from repro.sort.pairwise import PairwiseMergeSort, RoundStats
from repro.utils.bits import ceil_log2
from tests.engine.comparison import (
    assert_results_identical,
    assert_segments_identical,
)


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=3, block_size=8, warp_size=8)


class TestCorrectness:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_random(self, cfg, rng, k):
        n = cfg.tile_size * 16
        data = rng.permutation(n)
        result = MultiwaySort(cfg, k=k).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_duplicates(self, cfg, rng):
        n = cfg.tile_size * 8
        data = rng.integers(0, 5, size=n)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_single_tile(self, cfg, rng):
        data = rng.permutation(cfg.tile_size)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_partial_final_fan(self, cfg, rng):
        """Tiles = 2 with K = 4: the round degrades to fan 2."""
        n = cfg.tile_size * 2
        data = rng.permutation(n)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))
        labels = [r.label for r in result.rounds if "multiway" in r.label]
        assert labels == [f"multiway-round-L{cfg.tile_size}-K2"]

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_rejects_bad_fan(self, cfg, k):
        with pytest.raises(ValidationError):
            MultiwaySort(cfg, k=k)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_property(self, data):
        cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
        tiles = data.draw(st.sampled_from([4, 8, 16]))
        n = cfg.tile_size * tiles
        values = np.array(
            data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        )
        result = MultiwaySort(cfg, k=4).sort(values)
        assert np.array_equal(result.values, np.sort(values))


class TestRoundStructure:
    def test_fewer_rounds_than_pairwise(self, cfg, rng):
        n = cfg.tile_size * 64
        data = rng.permutation(n)
        mw = MultiwaySort(cfg, k=8).sort(data, score_blocks=2)
        pw = PairwiseMergeSort(cfg).sort(data, score_blocks=2)
        assert mw.num_rounds < pw.num_rounds

    def test_round_count_formula(self, cfg):
        mw = MultiwaySort(cfg, k=4)
        assert mw.num_multiway_rounds(cfg.tile_size) == 0
        assert mw.num_multiway_rounds(cfg.tile_size * 4) == 1
        assert mw.num_multiway_rounds(cfg.tile_size * 8) == 2  # 8 -> 2 -> 1
        assert mw.num_multiway_rounds(cfg.tile_size * 64) == 3

    def test_less_global_traffic(self, cfg, rng):
        n = cfg.tile_size * 64
        data = rng.permutation(n)
        mw = MultiwaySort(cfg, k=8).sort(data, score_blocks=2)
        pw = PairwiseMergeSort(cfg).sort(data, score_blocks=2)
        assert (
            mw.total_global_traffic().words < 0.7 * pw.total_global_traffic().words
        )


class TestAdversarialRobustness:
    def test_pairwise_adversary_hurts_multiway_less(self):
        """The constructed input is pairwise-specific: its relative damage
        to the K-way merge is a fraction of its damage to the pairwise
        merge."""
        cfg = SortConfig(elements_per_thread=15, block_size=64, warp_size=32)
        n = cfg.tile_size * 64
        worst = worst_case_permutation(cfg, n)
        random = generate("random", cfg, n, seed=0)

        def edge(sorter):
            w = sorter.sort(worst, score_blocks=4).total_shared_cycles()
            r = sorter.sort(random, score_blocks=4).total_shared_cycles()
            return w / r

        pairwise_edge = edge(PairwiseMergeSort(cfg))
        multiway_edge = edge(MultiwaySort(cfg, k=8))
        assert multiway_edge < 0.75 * pairwise_edge
        assert pairwise_edge > 1.5


class TestCaches:
    def test_input_not_mutated(self, cfg, rng):
        data = rng.permutation(cfg.tile_size * 8)
        copy = data.copy()
        MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(data, copy)

    def test_resort_matches_first_sort_with_memo_hits(self, cfg, rng):
        """The base-case sorter (and its memo) lasts across sorts without
        changing any result."""
        sorter = MultiwaySort(cfg, k=4)
        data = rng.integers(0, 4, size=cfg.tile_size * 16)
        first = sorter.sort(data, seed=3)
        memo = sorter._pairwise.memo
        hits_before = memo.hits
        second = sorter.sort(data, seed=3)
        assert memo.hits > hits_before
        assert second.values.tobytes() == first.values.tobytes()
        assert_results_identical(second, first)
        assert_segments_identical(second, first)


# -- the batched round against the per-block loop it replaced ---------------


class LoopMultiwaySort(MultiwaySort):
    """Oracle: the per-block, per-source multiway round, one rank search
    (and one warp stack) per (block, source) pair."""

    def _multiway_round(self, arr, run, fan, result, score_blocks, rng):
        cfg = self.config
        n = arr.size
        group_width = fan * run
        num_groups = n // group_width

        mat = arr.reshape(num_groups, group_width)
        # Stable argsort of the K concatenated runs == stable K-way merge
        # (ties resolve to the lower run index, the standard convention).
        order = np.argsort(mat, axis=1, kind="stable")
        merged = np.take_along_axis(mat, order, axis=1)

        blocks_per_group = group_width // cfg.tile_size
        blocks_total = num_groups * blocks_per_group
        scored = _choose(blocks_total, score_blocks, rng)

        merge_rows = []
        part_rows = []
        for blk in scored:
            group, x = divmod(int(blk), blocks_per_group)
            r_lo = x * cfg.tile_size
            r_hi = r_lo + cfg.tile_size
            s = order[group, r_lo:r_hi]
            src = s // run

            # Source-window starts (exclusive prefix counts before r_lo) and
            # the block's per-source window sizes.
            prior = order[group, :r_lo] // run
            lo = np.bincount(prior, minlength=fan)
            sizes = np.bincount(src, minlength=fan)
            window_base = np.concatenate([[0], np.cumsum(sizes)[:-1]])

            # Tile-local address of each output rank.
            local = window_base[src] + (s % run) - lo[src]
            merge_rows.append(
                stack_warp_steps(
                    thread_rank_addresses(local.astype(np.int64), cfg.E), cfg.w
                )
            )

            # Partition stage: each thread rank-searches its first value in
            # every source window (K bisections over the tile).
            starts = np.arange(cfg.b, dtype=np.int64) * cfg.E
            targets = merged[group, r_lo + starts]
            for k_src in range(fan):
                steps = _rank_search_steps(
                    mat[group],
                    value_targets=targets,
                    base=k_src * run + lo[k_src],
                    length=int(sizes[k_src]),
                    trace_base=int(window_base[k_src]),
                )
                if steps.size:
                    part_rows.append(stack_warp_steps(steps, cfg.w))

        merge_report = _score(merge_rows, cfg.w, self.mitigation)
        part_report = _score(part_rows, cfg.w, self.mitigation)

        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)
        probes = blocks_total * fan * ceil_log2(run + 1)
        coalescing.scattered_access(probes)

        result.rounds.append(
            RoundStats(
                label=f"multiway-round-L{run}-K{fan}",
                kind="global",
                run_length=run,
                merge_report=merge_report,
                partition_report=part_report,
                staging_report=ConflictReport.empty(cfg.w),
                global_traffic=coalescing.reset(),
                compute_instructions=(2 + fan) * n // cfg.w,
                blocks_total=blocks_total,
                blocks_scored=len(scored),
            )
        )
        return merged.reshape(-1)


def _rank_search_steps(
    flat: np.ndarray,
    value_targets: np.ndarray,
    base: int,
    length: int,
    trace_base: int,
) -> np.ndarray:
    """Per-lane bisection for ``rank of target`` in one sorted window.

    Returns the dense ``(steps, lanes)`` probe-address matrix (tile-local
    addresses, one probe per iteration per active lane).
    """
    lanes = value_targets.size
    lo = np.zeros(lanes, dtype=np.int64)
    hi = np.full(lanes, length, dtype=np.int64)
    rows = []
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        row = np.full(lanes, NO_ACCESS, dtype=np.int64)
        row[active] = trace_base + mid[active]
        rows.append(row)
        below = np.zeros(lanes, dtype=bool)
        below[active] = flat[(base + mid)[active]] < value_targets[active]
        lo = np.where(below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return np.vstack(rows) if rows else np.empty((0, lanes), dtype=np.int64)


def _choose(total: int, score_blocks: int | None, rng) -> np.ndarray:
    if score_blocks is None or score_blocks >= total:
        return np.arange(total, dtype=np.int64)
    return np.sort(rng.choice(total, size=score_blocks, replace=False)).astype(
        np.int64
    )


def _score(rows: list, num_banks: int, mitigation=None) -> ConflictReport:
    if not rows:
        return ConflictReport.empty(num_banks)
    dense = rows[0] if len(rows) == 1 else np.vstack(rows)
    if mitigation is not None:
        dense = mitigation.remap(dense, num_banks)
    return count_conflicts(AccessTrace.from_dense(dense), num_banks)


#: Few distinct values put window splits inside runs of equal keys that
#: span several sources; signed zeros are equal keys that differ in bits.
KEY_KINDS = ("duplicates", "permutation", "signed-zero-floats")
MITIGATIONS = ("none", "padding:1", "padding:3", "cfree-sort", "cfree-permute")


def draw_keys(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "duplicates":
        return rng.integers(0, 4, size=n)
    if kind == "permutation":
        return rng.permutation(n)
    return rng.choice(np.array([-0.0, 0.0, -1.5, 1.5, 2.0]), size=n)


@st.composite
def multiway_cases(draw):
    warp = draw(st.sampled_from([2, 4, 8]))
    cfg = SortConfig(
        elements_per_thread=draw(st.integers(1, 5)),
        block_size=warp * draw(st.sampled_from([1, 2, 4])),
        warp_size=warp,
    )
    tiles = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    # Every multiway round has one block per tile; below that count the
    # round samples.
    score_blocks = draw(
        st.none() | st.integers(1, tiles - 1) if tiles > 1 else st.none()
    )
    return (
        cfg,
        draw(st.sampled_from([2, 4, 8])),
        tiles,
        score_blocks,
        draw(st.sampled_from(MITIGATIONS)),
        draw(st.sampled_from(KEY_KINDS)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestBatchedRoundMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(multiway_cases())
    def test_random_configurations(self, case):
        cfg, k, tiles, score_blocks, mitigation, kind, seed = case
        data = draw_keys(kind, cfg.tile_size * tiles, seed)
        batched = MultiwaySort(cfg, k=k, mitigation=mitigation).sort(
            data, score_blocks=score_blocks, seed=seed
        )
        loop = LoopMultiwaySort(cfg, k=k, mitigation=mitigation).sort(
            data, score_blocks=score_blocks, seed=seed
        )
        assert batched.values.tobytes() == loop.values.tobytes()
        assert loop.values.tobytes() == np.sort(data, kind="stable").tobytes()
        assert_results_identical(batched, loop)
        assert_segments_identical(batched, loop)
