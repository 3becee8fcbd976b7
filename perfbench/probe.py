"""Host-speed probe, run in a process of its own.

Usage: ``python perfbench/probe.py``; each line read from stdin runs
:func:`host_probe` once and prints its time in seconds. EOF ends it.

The probe runs in its own process so that nothing the program leaves
behind in the benchmark's process (heap and allocator state, threads,
imported modules) reaches its time.
"""

import sys
import time

import numpy as np

_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 1 << 16)


def host_probe() -> float:
    """Time a fixed kernel that does not touch the program: two stable
    argsorts of 65,536 keys and a 20,000-step dict loop, the kinds of
    work the in-process ops spend their time in."""
    began = time.perf_counter()
    np.argsort(_KEYS, kind="stable")
    np.argsort(_KEYS, kind="stable")
    table: dict = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - began


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(host_probe()), flush=True)
