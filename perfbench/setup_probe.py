"""Set-up of an in-process workload, timed by the caller from spawn.

Usage: ``python perfbench/setup_probe.py WORKLOAD``

Imports what the workload's first op needs and builds its objects, then
prints ``ready`` and exits: the cost a user pays before the first op.
"""

import sys

from plan import FIGURE_PANELS, MATRIX_TILES


def figure_sweep() -> None:
    from repro.bench import figures
    from repro.engine.dispatch import execute_items  # noqa: F401
    from repro.engine.tasks import sweep_items
    from repro.gpu.device import get_device
    from repro.sort.presets import preset

    _, preset_name, device_name = FIGURE_PANELS[0]
    config = preset(preset_name)
    sizes = [n for n in config.valid_sizes(figures.MAX_ELEMENTS) if n >= figures.MIN_ELEMENTS]
    sweep_items(config, get_device(device_name), ("random", "worst-case"), sizes)


def matrix_exact() -> None:
    from repro.bench.matrix import DEFAULT_MATRIX_MITIGATIONS, matrix_config
    from repro.inputs.generators import generate
    from repro.sort.bitonic import BitonicSort
    from repro.sort.multiway import MultiwaySort
    from repro.sort.pairwise import PairwiseMergeSort

    config = matrix_config()
    for spec in DEFAULT_MATRIX_MITIGATIONS:
        PairwiseMergeSort(config, mitigation=spec)
        BitonicSort(config.block_size, config.warp_size, mitigation=spec)
        MultiwaySort(config, k=4, mitigation=spec)
    generate("worst-case", config, MATRIX_TILES * config.tile_size, seed=0)


PROBES = {"figure-sweep": figure_sweep, "matrix-exact": matrix_exact}

if __name__ == "__main__":
    PROBES[sys.argv[1]]()
    print("ready", flush=True)
