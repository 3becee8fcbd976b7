"""Seeded op plans for every workload.

A plan is everything the program is sent, derived from ``--seed`` alone.
Each op draws its own seed from :data:`SEED_POOL`, so every output the
program can produce has an entry in ``reference.json`` (written by
``reference.py``) no matter which ``--seed`` a run is given.
"""

from __future__ import annotations

import itertools
import json
import random

__all__ = [
    "FIGURE_PANELS",
    "HOT_ROUND",
    "JOB_EVERY",
    "MATRIX_TILES",
    "SEED_POOL",
    "SERVE_CONFIG",
    "SERVE_ROUND",
    "figure_plan",
    "matrix_plan",
    "request_key",
    "serve_catalog",
    "serve_plan",
]

#: Seeds an op may use; the reference holds the outputs for each.
SEED_POOL = tuple(range(8))

#: Throughput panels of paper Figs. 4 and 5, as (name, preset, device).
#: Both Fig. 4 panels carry the paper's quoted peak slowdowns. Fig. 6
#: plots the worst-case half of the Fig. 5 E=15 panel. The Fig. 5 E=17
#: panel is left out: it costs under half of the others, and a cycle of
#: unequal ops makes the median op latency fall between cost clusters,
#: where run-to-run noise moves it most.
FIGURE_PANELS = (
    ("fig4-thrust", "thrust-maxwell", "quadro-m4000"),
    ("fig4-mgpu", "mgpu-maxwell", "quadro-m4000"),
    ("fig5-e15-b512", "thrust-maxwell", "rtx-2080-ti"),
)

#: Tiles per input in the matrix grid (256-element tiles at E=4, b=64).
MATRIX_TILES = 16

#: Sort parameters of the service requests: E=3, b=32, w=32 (96-element
#: tiles), small enough that per-request compute is well under the
#: request's protocol and batching cost.
SERVE_CONFIG = {"elements_per_thread": 3, "block_size": 32, "warp_size": 32}

#: The serve request mix follows the repository's own service load test,
#: ``benchmarks/bench_service_load.py``: of the compute requests, 85% are
#: ``/simulate`` and 15% ``/sweep``; 70% of the ``/simulate`` draws go to
#: the hot first third of its variants, the rest spread over all of them;
#: sweeps are drawn uniformly. These are that test's choices, not
#: measured traffic. One ``/construct`` per round is an assumption: no
#: caller in the repository sends it in a mix, so it is kept rare.
#:
#: Kinds, variants and hot draws are dealt from decks (:func:`_deck`),
#: so these shares are exact over every round and only the order depends
#: on the seed. Drawn at random instead, the share of the slowest
#: request (a ``/sweep`` of random input) ranged from 6.3% to 8.1% of
#: ops over 10 seeds, and ``op_tail_ms`` with it (correlation 0.83).
SERVE_ROUND = {"simulate": 17, "sweep": 3, "construct": 1}
#: Hot and any-variant ``/simulate`` draws per round.
HOT_ROUND = (7, 3)

#: On ``serve-fleet`` every JOB_EVERY-th op is a job; the other ops are
#: the ``serve-daemon`` plan for the same seed, in the same order. The
#: load test sends 2 jobs per 1000 requests, too few for any bounded
#: metric to see the scheduler. This share is a design choice instead:
#: jobs (the load test's manifests, about 4x a request's latency) take
#: over half of the client's time and fill the slowest ops, so
#: ``op_tail_ms`` (p97.5 here) reads a job's latency and a slower
#: scheduler moves it, as does ``ops_per_s``.
JOB_EVERY = 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _deck(rng: random.Random, items):
    """Endless draws from ``items``, dealt round after round from a
    freshly shuffled deck."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def figure_plan(seed: int):
    """Endless ``(panel, op_seed)`` stream: panels in a fixed cycle."""
    rng = _rng("figure-sweep", seed)
    for panel in itertools.cycle(FIGURE_PANELS):
        yield panel, rng.choice(SEED_POOL)


def matrix_plan(seed: int):
    """Endless stream of grid seeds, one per op."""
    rng = _rng("matrix-exact", seed)
    while True:
        yield rng.choice(SEED_POOL)


def serve_catalog() -> dict[str, list[dict]]:
    """Every request the serve workloads can send, by kind. The
    ``/simulate``, ``/sweep`` and job variants are those of the service
    load test, with the program's default scoring parameters."""
    tile = SERVE_CONFIG["elements_per_thread"] * SERVE_CONFIG["block_size"]
    return {
        "simulate": [
            {"input": name, "tiles": tiles, "seed": s}
            for name in ("random", "worst-case")
            for tiles in (2, 4)
            for s in SEED_POOL
        ],
        "sweep": [
            {"inputs": [name], "sizes": [2 * tile, 4 * tile], "seed": s}
            for name in ("random", "sorted")
            for s in SEED_POOL[:4]
        ],
        "construct": [{"tiles": tiles} for tiles in (2, 4, 8)],
        "job": [
            {"inputs": [name], "sizes": [2 * tile, 4 * tile, 8 * tile], "chunk_sizes": 1}
            for name in ("random", "worst-case")
        ],
    }


def serve_plan(seed: int, *, fleet: bool = False):
    """Endless ``(kind, request)`` stream for the serve workloads.

    The fleet plan is the daemon plan with a job inserted every
    :data:`JOB_EVERY` ops; jobs are dealt from a deck of their own.
    """
    catalog = serve_catalog()
    simulate = catalog["simulate"]
    rng = _rng("serve", seed)
    kinds = _deck(rng, [kind for kind, count in SERVE_ROUND.items() for _ in range(count)])
    hot = _deck(rng, [True] * HOT_ROUND[0] + [False] * HOT_ROUND[1])
    variants = {
        "hot": _deck(rng, simulate[: len(simulate) // 3]),
        "simulate": _deck(rng, simulate),
        "sweep": _deck(rng, catalog["sweep"]),
        "construct": _deck(rng, catalog["construct"]),
    }
    jobs = _deck(_rng("serve-jobs", seed), catalog["job"])
    for index in itertools.count():
        if fleet and index % JOB_EVERY == JOB_EVERY - 1:
            yield "job", next(jobs)
            continue
        kind = next(kinds)
        yield kind, next(variants["hot" if kind == "simulate" and next(hot) else kind])


def request_key(kind: str, request: dict) -> str:
    """Reference-table key of one serve request."""
    return f"{kind}:{json.dumps(request, sort_keys=True)}"
