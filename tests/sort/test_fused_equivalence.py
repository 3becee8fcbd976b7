"""Fused round scoring against the loop oracle, on both backends.

The fused layer (``scoring="fused"``) promises bit-identity with the
per-tile loop oracle while never materializing order arrays, address
matrices, or traces — and it promises it twice: once for the optional
compiled backend (:mod:`repro._fused_native`) and once for the numpy
fallback that serves when the extension is absent or
``REPRO_FORCE_NUMPY=1``. This suite runs whichever backend is live (CI
runs it under both), so every assertion here is a statement about the
active backend; the toggle test pins the two backends against *each
other* in one process.

Matrix: four constructed families × padding on/off × full vs sampled
scoring × three shape regimes, including ``b == w`` (a single warp per
block — the partial-warp-table edge where warp-step trimming has no
interior warps to hide behind) and a non-power-of-two ``E``. A Hypothesis
property then draws the shape, tile count, sampling, mitigation backend
and keys (duplicate-heavy integers, permutations, signed-zero floats) at
random, which drives the sampled rounds' order-free merge through split
points inside runs of equal keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmm import fused as dmm_fused
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from tests.engine.comparison import FAMILIES, assert_results_identical

CONFIGS = {
    "small-e": SortConfig(elements_per_thread=3, block_size=16, warp_size=8),
    "b-equals-w": SortConfig(elements_per_thread=2, block_size=4, warp_size=4),
    "large-e": SortConfig(elements_per_thread=5, block_size=16, warp_size=8),
}

_ORACLE = {}


def loop_oracle(cfg_name, input_name, n, padding, score_blocks):
    """Reference result, cached per cell (the loop path is the slow one)."""
    key = (cfg_name, input_name, n, padding, score_blocks)
    if key not in _ORACLE:
        cfg = CONFIGS[cfg_name]
        data = generate(input_name, cfg, n, seed=0)
        _ORACLE[key] = PairwiseMergeSort(
            cfg, padding=padding, scoring="loop"
        ).sort(data, score_blocks=score_blocks, seed=0)
    return _ORACLE[key]


def fused_result(cfg_name, input_name, n, padding, score_blocks, **kwargs):
    cfg = CONFIGS[cfg_name]
    data = generate(input_name, cfg, n, seed=0)
    return PairwiseMergeSort(
        cfg, padding=padding, scoring="fused", **kwargs
    ).sort(data, score_blocks=score_blocks, seed=0)


class TestFusedMatchesLoop:
    @pytest.mark.parametrize("score_blocks", [None, 2], ids=["full", "sampled"])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("input_name", FAMILIES)
    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    def test_constructed_families(
        self, cfg_name, input_name, padding, score_blocks
    ):
        n = CONFIGS[cfg_name].tile_size * 8
        assert_results_identical(
            fused_result(cfg_name, input_name, n, padding, score_blocks),
            loop_oracle(cfg_name, input_name, n, padding, score_blocks),
        )

    @pytest.mark.parametrize("tiles", [1, 4], ids=["one-tile", "global-rounds"])
    def test_random_input(self, tiles):
        """Unstructured data; one tile = block rounds only (no global
        reconstruction path at all), four tiles = both round kinds."""
        n = CONFIGS["small-e"].tile_size * tiles
        assert_results_identical(
            fused_result("small-e", "random", n, 0, None),
            loop_oracle("small-e", "random", n, 0, None),
        )

    def test_sampled_rng_draw_order(self):
        """Sampled scoring draws scored-block indices per round from the
        seeded generator; the fused path must consume draws in the same
        order or every later round scores different blocks."""
        n = CONFIGS["small-e"].tile_size * 8
        for seed in (1, 7):
            cfg = CONFIGS["small-e"]
            data = generate("random", cfg, n, seed=0)
            rf = PairwiseMergeSort(cfg, scoring="fused").sort(
                data, score_blocks=3, seed=seed
            )
            rl = PairwiseMergeSort(cfg, scoring="loop").sort(
                data, score_blocks=3, seed=seed
            )
            assert_results_identical(rf, rl)


class TestFusedMatchesSiblings:
    """Fused ≡ vectorized ≡ memoized (all already ≡ loop; these pins are
    direct so a failure names the diverging pair)."""

    @pytest.mark.parametrize("input_name", FAMILIES)
    def test_vectorized(self, input_name):
        n = CONFIGS["small-e"].tile_size * 8
        cfg = CONFIGS["small-e"]
        data = generate(input_name, cfg, n, seed=0)
        rv = PairwiseMergeSort(cfg, memo=None).sort(data, seed=0)
        assert_results_identical(
            fused_result("small-e", input_name, n, 0, None), rv
        )

    def test_memoized(self):
        n = CONFIGS["small-e"].tile_size * 8
        cfg = CONFIGS["small-e"]
        data = generate("worst-case", cfg, n, seed=0)
        rm = PairwiseMergeSort(cfg, memo="auto").sort(data, seed=0)
        assert_results_identical(
            fused_result("small-e", "worst-case", n, 0, None), rm
        )


class TestBackendToggle:
    def test_force_numpy_env_disables_native(self, monkeypatch):
        monkeypatch.setenv(dmm_fused.FORCE_NUMPY_ENV, "1")
        assert dmm_fused.active_backend() == "numpy"
        assert not dmm_fused.native_enabled()
        monkeypatch.setenv(dmm_fused.FORCE_NUMPY_ENV, "0")
        assert dmm_fused.native_enabled() == (
            dmm_fused.native_module() is not None
        )

    def test_backends_agree_in_process(self, monkeypatch):
        """The real cross-backend pin: the same sort under the forced
        numpy fallback and under the compiled kernels, compared directly
        (skipped when the extension was not built — CI's numpy leg)."""
        if dmm_fused.native_module() is None:
            pytest.skip("compiled extension not built")
        n = CONFIGS["b-equals-w"].tile_size * 8
        monkeypatch.setenv(dmm_fused.FORCE_NUMPY_ENV, "1")
        numpy_result = fused_result("b-equals-w", "worst-case", n, 1, 2)
        monkeypatch.delenv(dmm_fused.FORCE_NUMPY_ENV)
        assert dmm_fused.active_backend() == "native"
        native_result = fused_result("b-equals-w", "worst-case", n, 1, 2)
        assert_results_identical(native_result, numpy_result)

    def test_values_sorted(self):
        """Belt and braces: fused output is actually sorted."""
        cfg = CONFIGS["large-e"]
        n = cfg.tile_size * 4
        data = generate("random", cfg, n, seed=5)
        result = PairwiseMergeSort(cfg, scoring="fused").sort(data)
        np.testing.assert_array_equal(result.values, np.sort(data))


#: Key kinds for the property test: few distinct values (merge-path splits
#: land inside runs of equal keys that span A and B), distinct keys, and
#: floats whose equal keys differ in bits (0.0 vs -0.0).
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
def fused_cases(draw):
    warp = draw(st.sampled_from([2, 4, 8]))
    cfg = SortConfig(
        elements_per_thread=draw(st.integers(1, 6)),
        block_size=warp * draw(st.sampled_from([1, 2, 4])),
        warp_size=warp,
    )
    tiles = draw(st.sampled_from([1, 2, 4, 8]))
    # Below the tile count every round samples (the order-free numpy
    # merge); None scores every tile (the argsort merge).
    score_blocks = draw(
        st.none() | st.integers(1, tiles - 1) if tiles > 1 else st.none()
    )
    return (
        cfg,
        tiles,
        score_blocks,
        draw(st.sampled_from(MITIGATIONS)),
        draw(st.sampled_from(KEY_KINDS)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestFusedMatchesLoopProperty:
    @settings(max_examples=150, deadline=None)
    @given(fused_cases())
    def test_random_configurations(self, case):
        cfg, tiles, score_blocks, mitigation, kind, seed = case
        data = draw_keys(kind, cfg.tile_size * tiles, seed)
        fused = PairwiseMergeSort(
            cfg, scoring="fused", mitigation=mitigation
        ).sort(data, score_blocks=score_blocks, seed=seed)
        loop = PairwiseMergeSort(cfg, scoring="loop", mitigation=mitigation).sort(
            data, score_blocks=score_blocks, seed=seed
        )
        # Bytes, not ==: 0.0 == -0.0, but the outputs must agree bit for
        # bit. Every stage is stable, so both equal numpy's stable sort.
        assert fused.values.tobytes() == loop.values.tobytes()
        assert loop.values.tobytes() == np.sort(data, kind="stable").tobytes()
        assert_results_identical(fused, loop)
