"""Tests for the on-disk bench cache: fingerprints, hit/miss/invalidation,
corrupted-entry recovery, and the zero-instrumented-sorts warm path."""

import os
import json

import pytest

from repro.bench.cache import (
    SCHEMA_VERSION,
    BenchCache,
    fingerprint,
    point_key,
    rates_key,
)
from repro.bench.runner import CalibratedRates, SweepRunner
from repro.gpu.device import QUADRO_M4000, RTX_2080_TI
from repro.sort.config import SortConfig


def small_config(**kwargs):
    defaults = dict(elements_per_thread=3, block_size=32, warp_size=32)
    defaults.update(kwargs)
    return SortConfig(**defaults)


def make_point_key(**overrides):
    defaults = dict(
        padding=0,
        input_name="worst-case",
        num_elements=3072,
        score_blocks=4,
        seed=0,
        exact_threshold=768,
    )
    config = overrides.pop("config", small_config())
    device = overrides.pop("device", QUADRO_M4000)
    defaults.update(overrides)
    return point_key(config, device, **defaults)


def runner_with_cache(tmp_path, **kwargs):
    cfg = small_config()
    defaults = dict(
        exact_threshold=cfg.tile_size * 8,
        score_blocks=4,
        seed=0,
        cache=BenchCache(tmp_path),
    )
    defaults.update(kwargs)
    return SweepRunner(cfg, QUADRO_M4000, **defaults)


class TestFingerprint:
    def test_stable(self):
        assert fingerprint(make_point_key()) == fingerprint(make_point_key())

    def test_insensitive_to_dict_order(self):
        key = make_point_key()
        shuffled = dict(reversed(list(key.items())))
        assert fingerprint(key) == fingerprint(shuffled)

    @pytest.mark.parametrize(
        "override",
        [
            {"config": small_config(elements_per_thread=5)},
            {"config": small_config(name="other")},
            {"device": RTX_2080_TI},
            {"padding": 1},
            {"input_name": "random"},
            {"num_elements": 6144},
            {"score_blocks": 8},
            {"score_blocks": None},
            {"seed": 1},
            {"exact_threshold": 1536},
        ],
    )
    def test_any_key_field_change_invalidates(self, override):
        assert fingerprint(make_point_key(**override)) != fingerprint(
            make_point_key()
        )

    def test_schema_version_in_key(self):
        assert make_point_key()["schema"] == SCHEMA_VERSION
        assert rates_key(
            small_config(),
            padding=0,
            input_name="random",
            calibration_size=768,
            score_blocks=4,
            seed=0,
        )["schema"] == SCHEMA_VERSION

    def test_point_and_rates_keys_distinct(self):
        cfg = small_config()
        pk = point_key(
            cfg, QUADRO_M4000, padding=0, input_name="random",
            num_elements=768, score_blocks=4, seed=0, exact_threshold=768,
        )
        rk = rates_key(
            cfg, padding=0, input_name="random", calibration_size=768,
            score_blocks=4, seed=0,
        )
        assert fingerprint(pk) != fingerprint(rk)


class TestRoundTrip:
    def test_point_roundtrip(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        key = make_point_key()
        assert runner.cache.get_point(key) is None
        point = runner.run_point("worst-case", runner.config.tile_size * 4)
        runner.cache.put_point(key, point)
        assert runner.cache.get_point(key) == point

    def test_rates_roundtrip(self, tmp_path):
        cache = BenchCache(tmp_path)
        rates = CalibratedRates(
            base_shared_cycles=1.5,
            base_shared_steps=1.0,
            base_replays=0.5,
            base_compute=0.75,
            global_shared_cycles=2.5,
            global_shared_steps=2.0,
            global_replays=0.25,
        )
        key = rates_key(
            small_config(), padding=0, input_name="random",
            calibration_size=768, score_blocks=4, seed=0,
        )
        assert cache.get_rates(key) is None
        cache.put_rates(key, rates)
        assert cache.get_rates(key) == rates

    def test_stats_and_clear(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        runner.sweep("worst-case", [runner.config.tile_size * 2,
                                    runner.config.tile_size * 16])
        cache = runner.cache
        stats = cache.stats()
        assert stats.point_entries == 2
        assert stats.rate_entries == 1  # one synthesized point -> one calibration
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().point_entries == 0
        assert cache.stats().total_bytes == 0

    def test_empty_cache_stats(self, tmp_path):
        cache = BenchCache(tmp_path / "never-created")
        assert cache.stats().point_entries == 0
        assert cache.clear() == 0


class TestRunnerIntegration:
    def test_warm_cache_runs_zero_instrumented_sorts(self, tmp_path):
        cfg = small_config()
        sizes = cfg.valid_sizes(cfg.tile_size * 64)  # exact + synthesized
        cold = runner_with_cache(tmp_path)
        points_cold = cold.sweep("worst-case", sizes)
        assert cold.instrumented_sorts > 0

        warm = runner_with_cache(tmp_path)
        points_warm = warm.sweep("worst-case", sizes)
        assert warm.instrumented_sorts == 0
        assert points_warm == points_cold
        assert warm.cache.hits == len(sizes)

    def test_cache_disabled_by_default(self, tmp_path):
        cfg = small_config()
        runner = SweepRunner(cfg, QUADRO_M4000, exact_threshold=cfg.tile_size * 8)
        assert runner.cache is None

    def test_seed_change_misses(self, tmp_path):
        n = small_config().tile_size * 4
        first = runner_with_cache(tmp_path)
        first.run_point("random", n)
        other_seed = runner_with_cache(tmp_path, seed=1)
        other_seed.run_point("random", n)
        assert other_seed.instrumented_sorts == 1

    def test_calibration_shared_across_synthesized_points(self, tmp_path):
        cfg = small_config()
        n_synth = cfg.tile_size * 32
        first = runner_with_cache(tmp_path)
        first.run_point("worst-case", n_synth)
        # Fresh runner, new synthesized size: point misses, but the
        # calibration is served from disk, so no new instrumented sort.
        second = runner_with_cache(tmp_path)
        second.run_point("worst-case", n_synth * 2)
        assert second.instrumented_sorts == 0


class TestCorruptionRecovery:
    def _point_entry_paths(self, cache):
        return list((cache.cache_dir / "points").glob("*.json"))

    def test_corrupt_point_entry_recomputes(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        n = runner.config.tile_size * 4
        point = runner.run_point("worst-case", n)
        [entry] = self._point_entry_paths(runner.cache)
        entry.write_text("{ not json !!!")

        warm = runner_with_cache(tmp_path)
        assert warm.run_point("worst-case", n) == point
        assert warm.instrumented_sorts == 1  # fell back to recompute
        # The recompute rewrote a valid entry.
        fresh = runner_with_cache(tmp_path)
        assert fresh.run_point("worst-case", n) == point
        assert fresh.instrumented_sorts == 0

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        n = runner.config.tile_size * 4
        point = runner.run_point("worst-case", n)
        [entry] = self._point_entry_paths(runner.cache)
        entry.write_text(json.dumps({"key": {}, "payload": {"bogus": 1}}))

        warm = runner_with_cache(tmp_path)
        assert warm.run_point("worst-case", n) == point
        assert warm.instrumented_sorts == 1

    def test_payload_not_a_dict_is_a_miss(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        n = runner.config.tile_size * 4
        point = runner.run_point("worst-case", n)
        [entry] = self._point_entry_paths(runner.cache)
        entry.write_text(json.dumps({"key": {}, "payload": [1, 2, 3]}))

        warm = runner_with_cache(tmp_path)
        assert warm.run_point("worst-case", n) == point
        assert warm.instrumented_sorts == 1

    def test_corrupt_rates_entry_recomputes(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        n_synth = runner.config.tile_size * 32
        point = runner.run_point("worst-case", n_synth)
        for entry in (runner.cache.cache_dir / "rates").glob("*.json"):
            entry.write_text("garbage")
        # Remove the cached point so the rates path is exercised again.
        for entry in self._point_entry_paths(runner.cache):
            entry.unlink()

        warm = runner_with_cache(tmp_path)
        assert warm.run_point("worst-case", n_synth) == point
        assert warm.instrumented_sorts == 1  # calibration recomputed


class TestBenchPointSerialization:
    def test_payload_is_plain_json(self, tmp_path):
        runner = runner_with_cache(tmp_path)
        runner.run_point("random", runner.config.tile_size * 2)
        [entry] = self._entries(runner.cache)
        data = json.loads(entry.read_text())
        assert set(data) == {"key", "payload"}
        # Round-trips through dataclasses.asdict / BenchPoint(**payload).
        assert data["payload"]["input_name"] == "random"
        assert data["key"]["schema"] == SCHEMA_VERSION

    @staticmethod
    def _entries(cache):
        return list((cache.cache_dir / "points").glob("*.json"))


class TestPrune:
    def fill(self, tmp_path, sizes=(1, 2, 4)):
        """Distinct entries with strictly increasing mtimes (oldest first).

        All sizes stay below the calibration size (the largest exact
        size, whose point also stores the input's calibration rates), so
        no rates entry appears alongside the point entries.
        """
        runner = runner_with_cache(tmp_path)
        cache = runner.cache
        paths = []
        for i, tiles in enumerate(sizes):
            n = runner.config.tile_size * tiles
            key = make_point_key(num_elements=n)
            cache.put_point(key, runner.run_point("worst-case", n))
            path = max(
                (tmp_path / "points").glob("*.json"),
                key=lambda p: p.stat().st_mtime_ns,
            )
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return cache, paths

    def test_evicts_oldest_first(self, tmp_path):
        cache, paths = self.fill(tmp_path)
        keep = paths[-1].stat().st_size
        result = cache.prune(keep)
        assert result.removed_entries == 2
        assert result.kept_entries == 1
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists()  # newest survives
        assert result.kept_bytes <= keep

    def test_byte_bound_respected(self, tmp_path):
        cache, paths = self.fill(tmp_path)
        budget = paths[1].stat().st_size + paths[2].stat().st_size
        result = cache.prune(budget)
        assert result.kept_bytes <= budget
        assert cache.stats().total_bytes == result.kept_bytes

    def test_zero_budget_clears_everything(self, tmp_path):
        cache, paths = self.fill(tmp_path)
        result = cache.prune(0)
        assert result.kept_entries == 0
        assert cache.stats().point_entries == 0
        assert result.removed_entries == len(paths)

    def test_large_budget_removes_nothing(self, tmp_path):
        cache, paths = self.fill(tmp_path)
        before = cache.stats().total_bytes
        result = cache.prune(before)
        assert result.removed_entries == 0
        assert result.kept_bytes == before

    def test_orphaned_tmp_files_removed(self, tmp_path):
        cache, paths = self.fill(tmp_path, sizes=(2,))
        orphan = tmp_path / "points" / "deadbeef.json.1234.tmp"
        orphan.write_text("partial write")
        # Age the orphan past the grace window: a crashed writer's
        # leftover, not a write in flight.
        os.utime(orphan, (1_000_000, 1_000_000))
        result = cache.prune(1 << 30)
        assert not orphan.exists()
        assert result.removed_entries == 1  # only the orphan
        assert paths[0].exists()

    def test_fresh_tmp_survives_prune(self, tmp_path):
        """Regression: a concurrent writer's just-created temp file must
        not be collected — deleting it makes the writer's ``os.replace``
        fail and silently drops its result. Only ``*.tmp`` older than
        the grace window are orphans."""
        cache, _ = self.fill(tmp_path, sizes=(2,))
        in_flight = tmp_path / "points" / "cafef00d.json.5678.tmp"
        in_flight.write_text('{"half": "written')  # fresh mtime = now
        result = cache.prune(1 << 30)
        assert in_flight.exists()
        assert result.removed_entries == 0
        # The writer completes its atomic rename unharmed.
        os.replace(in_flight, tmp_path / "points" / "cafef00d.json")

    def test_tmp_grace_override(self, tmp_path):
        cache, _ = self.fill(tmp_path, sizes=(2,))
        stale = tmp_path / "points" / "deadbeef.json.1234.tmp"
        stale.write_text("partial write")
        assert cache.prune(1 << 30).removed_entries == 0  # within grace
        assert cache.prune(1 << 30, tmp_grace=0.0).removed_entries == 1
        assert not stale.exists()

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            BenchCache(tmp_path).prune(-1)

    def test_missing_cache_dir_is_empty_prune(self, tmp_path):
        result = BenchCache(tmp_path / "never-created").prune(0)
        assert result.removed_entries == 0 and result.kept_entries == 0
