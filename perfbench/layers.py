"""Which program names each per-layer span wraps, and the output checks.

Every entry patches a name where its caller looks it up, so the span
covers exactly the calls that caller makes. Layer names follow the
program's module names. :func:`install_library` covers the simulator
layers (used in-process and inside the traced server);
:func:`install_client` the load generator's side of the service;
:func:`install_server` the daemon's side.
"""

from __future__ import annotations

import numpy as np

from spans import Patcher

__all__ = [
    "SortCheck",
    "install_client",
    "install_library",
    "install_server",
]

_PAIRWISE = "repro.sort.pairwise"
_ANALYTIC = "repro.analytic.engine"


def _reports(result):
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _reports(item)
    elif hasattr(result, "num_accesses"):
        yield result


def _count_accesses(tracer, args, kwargs, result) -> None:
    tracer.add("dmm.accesses", sum(r.num_accesses for r in _reports(result)))


def _count_lanes(tracer, args, kwargs, result) -> None:
    tracer.add("mergepath.partition.lanes", len(kwargs["diagonals"]))


def _count_route(tracer, args, kwargs, result) -> None:
    tracer.add(f"engine.route.{result}")


def _count_analytic(tracer, args, kwargs, result) -> None:
    tracer.add("analytic.sorts")


#: (span name, [(module, attribute)], hook) for the simulator layers.
LIBRARY_LAYERS = [
    ("sort.pairwise", [(_PAIRWISE, "PairwiseMergeSort.sort")], None),
    ("sort.bitonic", [("repro.sort.bitonic", "BitonicSort.sort")], None),
    ("sort.multiway", [("repro.sort.multiway", "MultiwaySort.sort")], None),
    (
        "sort.networks",
        [
            (_PAIRWISE, "apply_oddeven_network"),
            ("repro.sort.networks", "oddeven_network"),
            (_ANALYTIC, "oddeven_network"),
        ],
        None,
    ),
    (
        "mergepath.fused",
        [
            ("repro.mergepath.fused", "merge_pairs"),
            ("repro.mergepath.fused", "fused_block_reports"),
            ("repro.mergepath.fused", "fused_global_reports"),
        ],
        _count_accesses,
    ),
    (
        "mergepath.partition",
        [
            (_PAIRWISE, "partition_many_with_trace"),
            (_ANALYTIC, "partition_many_with_trace"),
        ],
        _count_lanes,
    ),
    (
        "mergepath.kernels",
        [
            (_PAIRWISE, "batched_rank_addresses"),
            (_PAIRWISE, "stack_group_warp_steps"),
            (_PAIRWISE, "stack_warp_steps"),
            (_PAIRWISE, "thread_rank_addresses"),
            ("repro.sort.multiway", "stack_warp_steps"),
            ("repro.sort.multiway", "thread_rank_addresses"),
            ("repro.sort.bitonic", "stack_warp_steps"),
            (_ANALYTIC, "batched_rank_addresses"),
            (_ANALYTIC, "stack_group_warp_steps"),
            (_ANALYTIC, "stack_warp_steps"),
            (_ANALYTIC, "thread_rank_addresses"),
        ],
        None,
    ),
    (
        "dmm.fused",
        [(_PAIRWISE, "dense_report"), (_PAIRWISE, "permutation_stage_report")],
        _count_accesses,
    ),
    (
        "dmm.conflicts",
        [
            (_PAIRWISE, "count_conflicts"),
            (_PAIRWISE, "report_segments"),
            ("repro.sort.multiway", "count_conflicts"),
            ("repro.sort.bitonic", "count_conflicts"),
            (_ANALYTIC, "count_conflicts"),
            (_ANALYTIC, "report_segments"),
        ],
        _count_accesses,
    ),
    (
        "mitigation.remap",
        [
            ("repro.mitigation.padding", "PaddingMitigation.remap"),
            ("repro.mitigation.cfree_sort", "CFreeSortMitigation.remap"),
            ("repro.mitigation.cfree_permute", "CFreePermuteMitigation.remap"),
        ],
        None,
    ),
    (
        "inputs.generate",
        [
            ("repro.bench.runner", "generate"),
            ("repro.bench.matrix", "generate"),
            ("repro.engine.inline", "generate"),
            ("repro.service.server", "generate"),
        ],
        None,
    ),
    (
        "adversary.construct",
        [
            ("repro.adversary.permutation", "worst_case_permutation"),
            ("repro.adversary.permutation", "unmerge_through_rounds"),
            ("repro.adversary.assignment", "construct_warp_assignment"),
            ("repro.service.server", "worst_case_permutation"),
        ],
        None,
    ),
    ("analytic", [(_ANALYTIC, "AnalyticEngine.sort_result")], _count_analytic),
    (
        None,
        [
            ("repro.bench.runner", "resolve_scoring"),
            ("repro.engine.inline", "resolve_scoring"),
        ],
        _count_route,
    ),
]

CLIENT_LAYERS = [
    (
        "service.client",
        [
            ("repro.service.client", f"ServiceClient.{name}")
            for name in ("simulate", "sweep", "construct", "submit_job", "wait_for_job")
        ],
        None,
    ),
    (
        "sort.serialize.decode",
        [
            ("repro.service.client", "result_from_obj"),
            ("repro.service.client", "array_from_obj"),
            ("repro.service.client", "point_from_obj"),
        ],
        None,
    ),
]

_REQUESTS = ("ConstructRequest", "SimulateRequest", "SweepRequest")


def _flight_span(args) -> str:
    """Worker single flights are the batching layer; the fleet router
    stacks its own single flight in front, told apart by the coroutine
    function it hands in."""
    start = args[2]
    if getattr(start, "__qualname__", "").startswith("ShardRouter."):
        return "service.shard.flight"
    return "service.batching.flight"


SERVER_LAYERS = [
    (
        "service.protocol.parse",
        [("repro.service.protocol", f"{r}.from_payload") for r in _REQUESTS],
        None,
    ),
    (
        "service.protocol.key",
        [("repro.service.protocol", f"{r}.coalesce_key") for r in _REQUESTS],
        None,
    ),
    (_flight_span, [("repro.service.batching", "SingleFlight.run")], None),
    (
        # The executor-thread bodies behind /simulate, /sweep, /construct.
        "service.server.compute",
        [
            ("repro.service.server", f"ReproService._compute_{name}")
            for name in ("simulate", "sweep", "construct")
        ],
        None,
    ),
    (
        "sort.serialize.encode",
        [
            ("repro.service.server", "result_to_obj"),
            ("repro.service.server", "array_to_obj"),
            ("repro.service.server", "point_to_obj"),
        ],
        None,
    ),
]


def _install(patcher: Patcher, table) -> None:
    for span, targets, hook in table:
        for module, attr in targets:
            patcher.wrap(module, attr, span, hook)


def _count_sort(tracer, args, kwargs, result) -> None:
    tracer.add("bench.runner.instrumented_sorts")


def install_library(patcher: Patcher) -> None:
    """Spans on the simulator layers and the sweep runner."""
    _install(patcher, LIBRARY_LAYERS)
    patcher.wrap("repro.bench.runner", "SweepRunner.run_point", "bench.runner.point")
    # The method that bumps the runner's own ``instrumented_sorts``.
    patcher.wrap(
        "repro.bench.runner", "SweepRunner._instrumented_sort", None, _count_sort
    )


def install_client(patcher: Patcher) -> None:
    """Spans on the load generator's client calls and reply decoding."""
    _install(patcher, CLIENT_LAYERS)


def install_server(patcher: Patcher) -> None:
    """Spans on the daemon's parse, single-flight, compute and encode."""
    _install(patcher, SERVER_LAYERS)


class SortCheck:
    """Checks that every sort the program runs returns sorted values.

    Wraps the ``sort`` entry of each sort backend with no span. Results
    that carry no values (the closed-form path skips them) are not
    counted.
    """

    TARGETS = [
        (_PAIRWISE, "PairwiseMergeSort.sort"),
        ("repro.sort.bitonic", "BitonicSort.sort"),
        ("repro.sort.multiway", "MultiwaySort.sort"),
    ]

    def __init__(self, patcher: Patcher):
        self.checked = 0
        self.unsorted = 0
        for module, attr in self.TARGETS:
            patcher.wrap(module, attr, None, self._check)

    def _check(self, tracer, args, kwargs, result) -> None:
        values = getattr(result, "values", None)
        if values is None:
            return
        self.checked += 1
        if values.size > 1 and not bool(np.all(values[1:] >= values[:-1])):
            self.unsorted += 1
