"""Tests for the sweep runner — most importantly, that the synthesized
large-N path agrees with exact simulation where both are available."""

import pytest

from repro.bench.cache import BenchCache
from repro.bench.runner import CalibratedRates, SweepRunner
from repro.errors import ValidationError
from repro.gpu.device import QUADRO_M4000
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from repro.inputs.generators import generate


def small_runner(**kwargs):
    cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
    defaults = dict(exact_threshold=cfg.tile_size * 32, score_blocks=4, seed=0)
    defaults.update(kwargs)
    return SweepRunner(cfg, QUADRO_M4000, **defaults)


class TestExactPath:
    def test_point_fields(self):
        runner = small_runner()
        n = runner.config.tile_size * 4
        p = runner.run_point("random", n)
        assert p.num_elements == n
        assert p.milliseconds > 0
        assert p.throughput_meps == pytest.approx(n / p.milliseconds / 1e3)

    def test_warp_mismatch_rejected(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=16)
        with pytest.raises(ValidationError):
            SweepRunner(cfg, QUADRO_M4000)


class TestSynthesizedPath:
    @pytest.mark.parametrize("input_name", ["random", "worst-case", "sorted"])
    def test_matches_exact_at_overlap_size(self, input_name):
        """Synthesize a size we can also simulate exactly; the two cost
        estimates must agree closely (exactly, for periodic inputs)."""
        runner_exact = small_runner()
        cfg = runner_exact.config
        n = cfg.tile_size * 32  # == exact threshold
        exact = runner_exact.run_point(input_name, n)

        runner_synth = small_runner(exact_threshold=cfg.tile_size * 8)
        synth = runner_synth.run_point(input_name, n)

        assert synth.milliseconds == pytest.approx(exact.milliseconds, rel=0.06)
        assert synth.replays_per_element == pytest.approx(
            exact.replays_per_element, rel=0.06
        )
        assert synth.global_transactions == exact.global_transactions

    def test_monotone_in_n(self):
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 4)
        sizes = runner.config.valid_sizes(10**7)[-4:]
        points = runner.sweep("worst-case", sizes)
        ms = [p.milliseconds for p in points]
        assert ms == sorted(ms)
        # conflicts/element grow ~ logarithmically: increasing, concave-ish.
        cpe = [p.replays_per_element for p in points]
        assert cpe == sorted(cpe)

    def test_calibration_cached(self):
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 4)
        n = runner.config.tile_size * 64
        runner.run_point("random", n)
        assert "random" in runner._calibrations
        cal = runner._calibrations["random"]
        runner.run_point("random", n * 2)
        assert runner._calibrations["random"] is cal


class TestCalibrationReuse:
    """The exact point at the calibration size is the calibration sort, so
    a sweep that crosses exact_threshold sorts each exact size once."""

    TILE = small_runner().config.tile_size
    THRESHOLD = TILE * 8
    SIZES = [TILE * 2, TILE * 4, TILE * 8, TILE * 16, TILE * 32]

    def runner(self, **kwargs):
        return small_runner(exact_threshold=self.THRESHOLD, **kwargs)

    @staticmethod
    def record_sorts(runner, monkeypatch) -> list[int]:
        """Sizes of the instrumented sorts ``runner`` runs from now on."""
        sizes = []
        sort = runner._instrumented_sort

        def recorded(input_name, n):
            sizes.append(n)
            return sort(input_name, n)

        monkeypatch.setattr(runner, "_instrumented_sort", recorded)
        return sizes

    @pytest.mark.parametrize(
        "input_name,routed", [("random", "fused"), ("worst-case", "analytic")]
    )
    def test_one_sort_per_exact_size(self, input_name, routed, monkeypatch):
        runner = self.runner()
        assert runner._resolved_scoring(input_name, self.THRESHOLD) == routed
        sorted_sizes = self.record_sorts(runner, monkeypatch)
        runner.sweep(input_name, self.SIZES)
        assert sorted_sizes == [n for n in self.SIZES if n <= self.THRESHOLD]

    @pytest.mark.parametrize("input_name", ["random", "worst-case"])
    def test_points_match_calibrating_first(self, input_name):
        reference = self.runner()
        reference._calibrate(input_name)
        assert self.runner().sweep(input_name, self.SIZES) == reference.sweep(
            input_name, self.SIZES
        )

    def test_cold_sweep_writes_rates_entry(self, tmp_path):
        cold = self.runner(cache=BenchCache(tmp_path))
        cold.sweep("random", self.SIZES)
        assert cold.instrumented_sorts == 3
        warm = self.runner(cache=BenchCache(tmp_path))
        warm.run_point("random", self.TILE * 64)
        assert warm.instrumented_sorts == 0


class TestComputeTermContinuity:
    def test_kernel_cost_agrees_across_paths(self):
        """Regression: the synthesized base compute term was 3n/w instead
        of the measured register + block-round cost, so
        compute_warp_instructions (and simulated ms) jumped at
        exact_threshold. Exact and synthesized KernelCost must agree at a
        size where both paths are available."""
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 8)
        cfg = runner.config
        n = cfg.tile_size * 32
        rates = runner._calibrate("worst-case")
        synth_cost, _ = runner._synthesize_cost(n, rates)

        data = generate("worst-case", cfg, n, seed=0)
        result = PairwiseMergeSort(cfg).sort(data, score_blocks=4, seed=0)
        exact_cost = result.kernel_cost(runner.warps_per_sm)

        assert (
            synth_cost.compute_warp_instructions
            == exact_cost.compute_warp_instructions
        )
        assert synth_cost.global_transactions == exact_cost.global_transactions
        assert synth_cost.global_words == exact_cost.global_words
        assert synth_cost.kernel_launches == exact_cost.kernel_launches

    def test_no_discontinuity_at_threshold(self):
        """Per-element compute grows with the round count, so it must not
        drop when crossing from the exact to the synthesized path (the old
        3n/w base term made it fall discontinuously)."""
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 8)
        cfg = runner.config
        n_exact = cfg.tile_size * 8

        result = PairwiseMergeSort(cfg).sort(
            generate("worst-case", cfg, n_exact, seed=0), score_blocks=4, seed=0
        )
        exact_per_element = (
            result.kernel_cost(runner.warps_per_sm).compute_warp_instructions
            / n_exact
        )

        rates = runner._calibrate("worst-case")
        per_element = [exact_per_element]
        for n in (n_exact * 2, n_exact * 4, n_exact * 8):
            cost, _ = runner._synthesize_cost(n, rates)
            per_element.append(cost.compute_warp_instructions / n)
        assert per_element == sorted(per_element)


class TestCalibratedRates:
    def test_requires_global_round(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        data = generate("random", cfg, cfg.tile_size, seed=0)
        result = PairwiseMergeSort(cfg).sort(data)
        with pytest.raises(ValidationError):
            CalibratedRates.from_result(result)

    def test_rates_positive(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        data = generate("random", cfg, cfg.tile_size * 8, seed=0)
        result = PairwiseMergeSort(cfg).sort(data)
        rates = CalibratedRates.from_result(result)
        assert rates.base_shared_cycles > 0
        assert rates.global_shared_cycles > 0
