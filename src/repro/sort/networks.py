"""Odd-even transposition sorting network — the register-level base case.

Each thread begins the base case by sorting its ``E`` elements *in
registers* with an odd-even network (paper Section II-A, citing Satish et
al.). Registers have no banks, so the network contributes no conflicts —
only compute instructions — but the loads that bring the ``E`` elements from
shared memory into registers (thread ``t`` reads addresses ``tE+j``) do hit
banks, and are conflict-free exactly when ``GCD(E, w) = 1`` (the Dotsenko
co-prime padding observation the paper cites). The simulator captures that
for free by tracing the load/store phases in :mod:`repro.sort.pairwise`.

The network is applied vectorized: one ``(num_threads, E)`` matrix, each
comparator a columnwise exchange of strictly out-of-order pairs, so the
output is a stable permutation of each row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["apply_oddeven_network", "network_depth", "oddeven_network"]


@lru_cache(maxsize=None)
def oddeven_network(width: int) -> tuple[tuple[int, int], ...]:
    """Comparators of the odd-even transposition network on ``width`` wires.

    ``width`` rounds alternate exchanges of (even, even+1) and (odd, odd+1)
    wire pairs; the result sorts any input (it is a sorting network).
    Returned as a flat tuple of ``(i, j)`` with ``i < j`` in application
    order.

    >>> oddeven_network(3)
    ((0, 1), (1, 2), (0, 1))
    """
    width = check_positive_int(width, "width")
    comparators: list[tuple[int, int]] = []
    for round_index in range(width):
        start = round_index % 2
        comparators.extend((i, i + 1) for i in range(start, width - 1, 2))
    return tuple(comparators)


def network_depth(width: int) -> int:
    """Depth (rounds) of the odd-even transposition network: ``width``."""
    return check_positive_int(width, "width")


def apply_oddeven_network(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Sort each row of ``values`` with the odd-even network.

    Parameters
    ----------
    values:
        ``(num_threads, E)`` matrix; each row is one thread's registers.

    Returns
    -------
    (sorted_values, num_comparisons):
        The row-sorted matrix (a copy) and the total comparator executions
        (comparators × rows), which feeds the compute-instruction counter.

    Examples
    --------
    >>> import numpy as np
    >>> out, ops = apply_oddeven_network(np.array([[3, 1, 2], [9, 8, 7]]))
    >>> out.tolist()
    [[1, 2, 3], [7, 8, 9]]
    >>> ops
    6
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValidationError(
            f"values must be 2-D (threads, E), got shape {values.shape}"
        )
    out = values.copy()
    comparators = oddeven_network(out.shape[1]) if out.shape[1] > 1 else ()
    for i, j in comparators:
        # Exchange only strictly out-of-order wires. min/max would not be
        # a permutation on float keys (min(0.0, -0.0) and max(0.0, -0.0)
        # are both -0.0), and a strict swap keeps the network stable.
        lo, hi = out[:, i], out[:, j]
        swap = lo > hi
        out[:, i], out[:, j] = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return out, len(comparators) * out.shape[0]
