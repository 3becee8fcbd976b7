"""Build ``reference.json``: the simulated statistics every op must return.

Usage, from the repository root: ``python3 perfbench/reference.py``

The simulator is deterministic, so a change that only makes it faster
leaves every entry bit-identical. Entries cover every seed in
``plan.SEED_POOL`` for every figure panel and matrix grid, and every
request in the serve catalog. Serve entries come from direct library
calls, not from the service, so the benchmark also catches a served
result that drifts from the library's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plan import (  # noqa: E402
    FIGURE_PANELS,
    MATRIX_TILES,
    SEED_POOL,
    SERVE_CONFIG,
    request_key,
    serve_catalog,
)
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    cells_digest,
    points_digest,
    result_digest,
    run_panel,
    values_digest,
)


def figure_reference() -> dict:
    return {
        f"{panel[0]}/{seed}": points_digest(run_panel(panel, seed))
        for panel in FIGURE_PANELS
        for seed in SEED_POOL
    }


def matrix_reference() -> dict:
    from repro.bench.matrix import run_matrix

    return {
        str(seed): cells_digest(run_matrix(tiles=MATRIX_TILES, seed=seed))
        for seed in SEED_POOL
    }


def serve_reference() -> dict:
    """Each catalog request, answered by the library the way the daemon
    answers it: the protocol's parser, then the same engine calls."""
    from repro.adversary.permutation import worst_case_permutation
    from repro.engine import SortTask, create_engine, engine_for_scoring
    from repro.engine.inline import InlineEngine
    from repro.engine.tasks import WorkItem
    from repro.inputs.generators import generate
    from repro.service.protocol import ConstructRequest, SimulateRequest, SweepRequest
    from repro.service.scheduler import split_manifest
    from repro.sort.config import SortConfig
    from repro.sort.serialize import config_to_obj

    config = config_to_obj(SortConfig(**SERVE_CONFIG))

    def points(request) -> list:
        items = [
            WorkItem(
                config=request.config,
                device=request.device,
                input_name=name,
                num_elements=n,
                exact_threshold=request.exact_threshold,
                score_blocks=request.score_blocks,
                seed=request.seed,
                padding=request.padding,
                scoring=request.scoring,
                mitigation=request.mitigation,
            )
            for name in request.input_names
            for n in request.sizes
        ]
        return points_digest(InlineEngine().run_points(items))

    out = {}
    catalog = serve_catalog()
    for body in catalog["simulate"]:
        # The fields ServiceClient.simulate sends by default.
        request = SimulateRequest.from_payload(
            {"config": config, "include_values": True, "memo": True, "score_blocks": 8, **body}
        )
        engine = create_engine(engine_for_scoring(request.scoring, memoized=request.memo))
        result = engine.run_sort(
            SortTask(
                config=request.config,
                input_name=request.input_name,
                num_elements=request.num_elements,
                padding=request.padding,
                score_blocks=request.score_blocks,
                seed=request.seed,
                values=generate(request.input_name, request.config, request.num_elements, seed=request.seed),
                mitigation=request.mitigation,
            )
        )
        out[request_key("simulate", body)] = result_digest(result)
    for body in catalog["sweep"]:
        # The fields ServiceClient.sweep sends by default.
        request = SweepRequest.from_payload(
            {
                "config": config,
                "device": "quadro-m4000",
                "min_elements": 0,
                "exact_threshold": 1 << 20,
                "score_blocks": 8,
                **body,
            }
        )
        out[request_key("sweep", body)] = points(request)
    for body in catalog["construct"]:
        request = ConstructRequest.from_payload({"config": config, "encoding": "b64", **body})
        values = worst_case_permutation(request.config, request.num_elements)
        out[request_key("construct", body)] = values_digest(values)
    for body in catalog["job"]:
        request, _, _ = split_manifest({"config": config, **body})
        out[request_key("job", body)] = points(request)
    return out


def main() -> None:
    reference = {
        "figure-sweep": figure_reference(),
        "matrix-exact": matrix_reference(),
        "serve": serve_reference(),
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
