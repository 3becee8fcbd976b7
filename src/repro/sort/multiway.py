"""Instrumented K-way merge sort — Karsin et al.'s alternative.

The paper's Section II-C cites multiway merge sort [19, 21] alongside the
pairwise algorithm it attacks. The multiway variant trades per-round
simplicity for *fewer rounds*: ``⌈log_K(N/bE)⌉`` global rounds instead of
``⌈log₂(N/bE)⌉``, slashing the ``A_g`` global-traffic term that motivates
large ``E`` in the first place.

Model:

* the base case (register sort + block-level pairwise rounds up to ``bE``)
  is identical to :class:`~repro.sort.pairwise.PairwiseMergeSort` and is
  delegated to it;
* each multiway round merges groups of ``K`` sorted runs; a block's tile
  holds its ``bE``-rank quantile of a group — the ``K`` source windows
  laid out contiguously — and each thread merges ``E`` elements, reading
  them in value order (one shared access per lock-step, exactly the access
  model of the paper's analysis, traced and conflict-scored);
* the partition stage is modeled as each thread rank-searching its start
  in all ``K`` source windows (``K·⌈log₂ run⌉`` probes, traced), and each
  block boundary doing the same in global memory (counted as scattered
  traffic). A round traces every scored block's searches as one batched
  lock-step bisection over all (block, source, thread) lanes, the way
  Merge Path's lane-parallel diagonal search is batched.

The interesting adversarial question — measured in
``benchmarks/bench_baseline_multiway.py`` — is that the paper's
construction is *pairwise-specific*: under K-way consumption the
engineered alignment partially decoheres, so multiway merge sort is both
faster on random inputs (fewer rounds) and less damaged by this adversary.
(A K-way-specific worst case surely exists; constructing one is open.)
"""

from __future__ import annotations

import numpy as np

from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.trace import NO_ACCESS, AccessTrace
from repro.errors import ValidationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.mergepath.kernels import (
    batched_rank_addresses,
    stack_group_warp_steps,
    stack_warp_steps,
)

# Not called here; perfbench/layers.py wraps it by module lookup.
from repro.mergepath.kernels import thread_rank_addresses  # noqa: F401
from repro.mitigation.registry import reconcile_mitigation
from repro.sort.config import SortConfig
from repro.sort.pairwise import (
    PairwiseMergeSort,
    RoundStats,
    SortResult,
    _choose_blocks,
)
from repro.utils.bits import ceil_log2
from repro.utils.rng import as_generator
from repro.utils.validation import check_orderable_keys, check_power_of_two

__all__ = ["MultiwaySort"]


class MultiwaySort:
    """Simulated K-way merge sort sharing the pairwise base case.

    Parameters
    ----------
    config:
        Tile shape parameters (``E``, ``b``, ``w``) — same meaning as for
        the pairwise sort.
    k:
        Merge fan-in ``K`` (power of two ≥ 2; ``K = 2`` degenerates to the
        pairwise algorithm round structure).
    mitigation:
        Layout defense applied to every traced shared-memory address —
        in the delegated pairwise base case and in the multiway rounds
        alike (spec string or
        :class:`~repro.mitigation.base.Mitigation`; default ``"none"``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
    >>> s = MultiwaySort(cfg, k=4)
    >>> data = np.random.default_rng(0).permutation(cfg.tile_size * 16)
    >>> bool(np.array_equal(s.sort(data).values, np.sort(data)))
    True
    """

    def __init__(self, config: SortConfig, k: int = 4, *, mitigation=None):
        self.config = config
        self.k = check_power_of_two(k, "k")
        self.mitigation = reconcile_mitigation(mitigation)
        if k < 2:
            raise ValidationError(f"fan-in k must be >= 2, got {k}")
        # The shared base case; its private ConflictMemo lasts across sorts.
        self._pairwise = PairwiseMergeSort(config, mitigation=self.mitigation)

    def num_multiway_rounds(self, num_elements: int) -> int:
        """Global rounds: ``⌈log_K(N / bE)⌉``."""
        tiles = self.config.validate_input_size(num_elements) // (
            self.config.tile_size
        )
        rounds = 0
        while tiles > 1:
            tiles = -(-tiles // self.k)
            rounds += 1
        return rounds

    # -- public API ----------------------------------------------------------

    def sort(
        self,
        values: np.ndarray,
        *,
        score_blocks: int | None = None,
        seed: int | None = 0,
    ) -> SortResult:
        """Sort ``values`` with full instrumentation."""
        cfg = self.config
        arr = check_orderable_keys(np.ascontiguousarray(values))
        n = cfg.validate_input_size(arr.size)
        rng = as_generator(seed)

        result = SortResult(values=arr, config=cfg, num_elements=n)

        # Base case: identical to the pairwise algorithm.
        pairwise = self._pairwise
        arr = pairwise._base_register_phase(arr, result)
        run = cfg.E
        while run < min(cfg.tile_size, n):
            arr, _ = pairwise._merge_round(arr, run, result, score_blocks, rng)
            run *= 2

        # Multiway rounds.
        while run < n:
            fan = min(self.k, n // run)
            arr = self._multiway_round(arr, run, fan, result, score_blocks, rng)
            run *= fan
        result.values = arr
        return result

    # -- one K-way round -------------------------------------------------

    def _multiway_round(
        self,
        arr: np.ndarray,
        run: int,
        fan: int,
        result: SortResult,
        score_blocks: int | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        cfg = self.config
        n = arr.size
        tile = cfg.tile_size
        group_width = fan * run
        num_groups = n // group_width

        mat = arr.reshape(num_groups, group_width)
        # Stable argsort of the K concatenated runs == stable K-way merge
        # (ties resolve to the lower run index, the standard convention).
        order = np.argsort(mat, axis=1, kind="stable")
        merged = np.take_along_axis(mat, order, axis=1)

        blocks_per_group = group_width // tile
        blocks_total = num_groups * blocks_per_group
        scored = _choose_blocks(blocks_total, score_blocks, rng)
        num_scored = scored.size

        # Every block's per-source window sizes (one bincount over all
        # tiles) and window starts (exclusive prefix sums over each group's
        # tiles): a block's window in source k begins after the ranks the
        # group's earlier blocks took from k.
        order_blocks = order.reshape(blocks_total, tile)
        src_all = order_blocks // run
        counts = np.bincount(
            (np.arange(blocks_total)[:, None] * fan + src_all).ravel(),
            minlength=blocks_total * fan,
        ).reshape(num_groups, blocks_per_group, fan)
        starts = (np.cumsum(counts, axis=1) - counts).reshape(blocks_total, fan)
        sizes = counts.reshape(blocks_total, fan)[scored]
        lo = starts[scored]
        window_base = np.cumsum(sizes, axis=1) - sizes

        # Merge stage: tile-local address of each output rank, all scored
        # blocks at once (b is a warp multiple, so one stack equals the
        # per-block stacks one after another).
        s = order_blocks[scored]
        src = src_all[scored]
        local = (
            np.take_along_axis(window_base, src, axis=1)
            + s % run
            - np.take_along_axis(lo, src, axis=1)
        )
        merge_dense = stack_warp_steps(
            batched_rank_addresses(local, cfg.E), cfg.w
        )

        # Partition stage: each thread rank-searches its first value in
        # every source window — one bisection over all (block, source,
        # thread) lanes, block-major, each (block, source) group trimmed of
        # its trailing idle steps (empty windows contribute no steps).
        targets = merged.reshape(blocks_total, tile)[scored, :: cfg.E]
        group_base = (scored // blocks_per_group) * group_width
        window_start = (
            group_base[:, None] + np.arange(fan, dtype=np.int64) * run + lo
        )
        part_dense = stack_group_warp_steps(
            _lane_rank_search(
                arr,
                value_targets=np.repeat(targets, fan, axis=0).ravel(),
                base=np.repeat(window_start.ravel(), cfg.b),
                length=np.repeat(sizes.ravel(), cfg.b),
                trace_base=np.repeat(window_base.ravel(), cfg.b),
            ),
            num_scored * fan,
            cfg.w,
        )

        merge_report = _score(merge_dense, cfg.w, self.mitigation)
        part_report = _score(part_dense, cfg.w, self.mitigation)

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
                blocks_scored=num_scored,
            )
        )
        return merged.reshape(-1)


def _lane_rank_search(
    flat: np.ndarray,
    value_targets: np.ndarray,
    base: np.ndarray,
    length: np.ndarray,
    trace_base: np.ndarray,
) -> np.ndarray:
    """Lock-step bisection of every lane for its target's rank.

    Lane ``t`` searches the sorted window ``flat[base[t] : base[t] +
    length[t]]`` for the count of entries ``< value_targets[t]``. Returns
    the dense ``(steps, lanes)`` probe-address matrix: ``trace_base[t] +
    mid`` while lane ``t`` is searching, ``NO_ACCESS`` once it has
    converged. Late iterations touch only the still-searching lanes.
    """
    lo = np.zeros(value_targets.size, dtype=np.int64)
    hi = length.astype(np.int64)
    dense = np.full(
        (int(length.max(initial=0)).bit_length(), lo.size),
        NO_ACCESS,
        dtype=np.int64,
    )
    row = 0
    idx = np.nonzero(lo < hi)[0]
    while idx.size:
        l = lo[idx]
        h = hi[idx]
        mid = (l + h) // 2
        dense[row, idx] = trace_base[idx] + mid
        row += 1
        below = flat[base[idx] + mid] < value_targets[idx]
        new_lo = np.where(below, mid + 1, l)
        new_hi = np.where(below, h, mid)
        lo[idx] = new_lo
        hi[idx] = new_hi
        idx = idx[new_lo < new_hi]
    return dense[:row]


def _score(dense: np.ndarray, num_banks: int, mitigation) -> ConflictReport:
    if not dense.size:
        return ConflictReport.empty(num_banks)
    dense = mitigation.remap(dense, num_banks)
    return count_conflicts(AccessTrace.from_dense(dense), num_banks)
