"""Hill climbing (marginal-utility greedy) partitioning.

The simplest possible allocator: hand out capacity one granularity unit at a
time, always to the partition whose miss curve drops the most for that unit.
Its implementation really is "a trivial linear-time for-loop" (Sec. VII-D).

Hill climbing is *optimal* when all miss curves are convex — which is
exactly what Talus guarantees — but it gets stuck in local optima on
non-convex (cliffy) curves, which is why plain LRU partitioning sees little
benefit from it (Fig. 12).
"""

from __future__ import annotations

import numpy as np

from .base import Allocation, PartitioningProblem

__all__ = ["hill_climbing"]


def hill_climbing(problem: PartitioningProblem) -> Allocation:
    """Greedy marginal-utility allocation.

    At each step the next ``granularity`` units go to the partition with the
    largest miss reduction for that increment.  Ties go to the lowest
    partition index (deterministic).  Per-partition floors
    (``problem.minimums``) are honoured by starting every partition at its
    floor and distributing only the remaining budget.

    As in UCP's marginal-utility tables, each curve is evaluated once, over
    every size its partition could reach, and the greedy loop only walks
    plain float lists.  The size grid is a running sum of steps, so each
    size equals the one repeated ``+= granularity`` reaches, bit for bit.
    """
    if problem.minimums is not None:
        floors = list(problem.minimums)
        budget = problem.total_size - sum(floors)
    else:
        floors = [problem.minimum] * problem.num_partitions
        budget = problem.total_size - problem.minimum * problem.num_partitions
    step = problem.granularity
    remaining_steps = int(budget / step + 1e-9)
    # grids[i][k] / misses[i][k]: partition i's size / misses after k steps.
    grids = []
    misses = []
    for curve, floor in zip(problem.curves, floors):
        grid = np.cumsum([floor] + [step] * remaining_steps)
        grids.append(grid.tolist())
        misses.append(curve(grid).tolist())
    taken = [0] * len(misses)
    for _ in range(remaining_steps):
        best_index = -1
        best_gain = -1.0
        for i, row in enumerate(misses):
            k = taken[i]
            gain = row[k] - row[k + 1]
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_index = i
        if best_index < 0:
            break
        taken[best_index] += 1
    # A partition granted nothing keeps its floor as given (an int stays
    # an int), as the in-place ``+=`` loop left it.
    sizes = [grid[k] if k else floor
             for grid, k, floor in zip(grids, taken, floors)]
    return Allocation(sizes=tuple(sizes),
                      total_misses=float(sum(
                          row[k] for row, k in zip(misses, taken))),
                      algorithm="hill_climbing")
