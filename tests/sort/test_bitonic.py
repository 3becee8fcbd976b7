"""Tests for the oblivious bitonic baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sort.bitonic import BitonicSort
from tests.engine.comparison import (
    assert_results_identical,
    assert_segments_identical,
)


@pytest.fixture
def sorter():
    return BitonicSort(block_size=8, warp_size=4)


class TestCorrectness:
    def test_random(self, sorter, rng):
        data = rng.permutation(256)
        assert np.array_equal(sorter.sort(data).values, np.sort(data))

    def test_duplicates(self, sorter, rng):
        data = rng.integers(0, 5, size=128)
        assert np.array_equal(sorter.sort(data).values, np.sort(data))

    def test_sorted_and_reverse(self, sorter):
        n = 64
        assert np.array_equal(sorter.sort(np.arange(n)).values, np.arange(n))
        assert np.array_equal(
            sorter.sort(np.arange(n)[::-1].copy()).values, np.arange(n)
        )

    def test_input_not_mutated(self, sorter, rng):
        data = rng.permutation(64)
        copy = data.copy()
        sorter.sort(data)
        assert np.array_equal(data, copy)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=4, max_value=8), st.data())
    def test_property(self, k, data):
        n = 1 << k
        values = np.array(
            data.draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n))
        )
        sorter = BitonicSort(block_size=8, warp_size=4)
        assert np.array_equal(sorter.sort(values).values, np.sort(values))

    def test_rejects_non_power_of_two(self, sorter):
        with pytest.raises(ConfigurationError):
            sorter.sort(np.arange(48))

    def test_rejects_below_tile(self, sorter):
        with pytest.raises(ConfigurationError):
            sorter.sort(np.arange(8))  # tile is 16

    def test_rejects_small_block(self):
        with pytest.raises(ConfigurationError):
            BitonicSort(block_size=4, warp_size=8)


class TestCaches:
    @pytest.mark.parametrize(
        "mitigation", ["none", "padding:1", "cfree-sort", "cfree-permute"]
    )
    def test_reused_sorter_matches_fresh(self, mitigation):
        """The per-distance report cache is invisible: one sorter sorting
        inputs of several sizes in turn equals a fresh sorter per input."""
        rng = np.random.default_rng(7)
        inputs = [
            rng.permutation(256),
            rng.integers(0, 3, size=64),
            rng.choice(np.array([-0.0, 0.0, 1.5]), size=1024),
            rng.permutation(256),
        ]
        reused = BitonicSort(block_size=8, warp_size=4, mitigation=mitigation)
        for data in inputs:
            got = reused.sort(data)
            fresh = BitonicSort(
                block_size=8, warp_size=4, mitigation=mitigation
            ).sort(data)
            assert got.values.tobytes() == fresh.values.tobytes()
            assert_results_identical(got, fresh)
            assert_segments_identical(got, fresh)


class TestObliviousness:
    def test_conflicts_are_input_independent(self, rng):
        """The whole point: identical conflict counts for every input."""
        sorter = BitonicSort(block_size=32, warp_size=16)
        n = 1 << 12
        inputs = [
            rng.permutation(n),
            np.arange(n),
            np.arange(n)[::-1].copy(),
            rng.integers(0, 3, size=n),
        ]
        counts = {sorter.sort(x).total_shared_cycles() for x in inputs}
        replays = {sorter.sort(x).total_replays() for x in inputs}
        assert len(counts) == 1
        assert len(replays) == 1

    def test_step_count(self):
        """log N (log N + 1) / 2 compare-exchange steps."""
        sorter = BitonicSort(block_size=8, warp_size=4)
        result = sorter.sort(np.arange(64))
        assert len(result.rounds) == 6 * 7 // 2

    def test_low_distance_conflicts_exist(self):
        """d < w steps produce the classic 2-way shared conflicts."""
        sorter = BitonicSort(block_size=32, warp_size=16)
        result = sorter.sort(np.arange(1 << 10))
        d1 = [r for r in result.rounds if r.label.endswith("-d1")]
        assert d1 and all(r.merge_report.total_replays > 0 for r in d1)

    def test_global_steps_have_traffic_not_conflicts(self):
        sorter = BitonicSort(block_size=8, warp_size=4)
        result = sorter.sort(np.arange(256))
        glob = [r for r in result.rounds if r.kind == "global"]
        assert glob
        for r in glob:
            assert r.global_traffic.words == 2 * 256
            assert r.merge_report.total_transactions == 0


class TestVersusMergeSort:
    def test_immune_to_merge_sort_adversary(self, rng):
        """Feeding the merge-sort worst-case permutation to bitonic changes
        nothing (while it doubles the merge sort's cycles)."""
        from repro.adversary.permutation import worst_case_permutation
        from repro.sort.config import SortConfig
        from repro.sort.pairwise import PairwiseMergeSort

        cfg = SortConfig(elements_per_thread=4, block_size=8, warp_size=8)
        n = cfg.tile_size * 8  # 256, power of two -> valid for both sorts
        adversarial = worst_case_permutation(cfg, n)

        bitonic = BitonicSort(block_size=8, warp_size=8)
        b_adv = bitonic.sort(adversarial).total_shared_cycles()
        b_rand = bitonic.sort(rng.permutation(n)).total_shared_cycles()
        assert b_adv == b_rand
