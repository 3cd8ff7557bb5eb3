"""Exploring the node-flow polytope of one transition.

The feasible flows between clusterings with sizes {10,8,6} and {12,10,2}
form a lattice of 279 points.  The demo enumerates them all, scores the
greedy seed pool, runs the steepest-descent hull search, and confirms it found
the global optimum.  It also shows the sparsity/similarity correlation that
motivates searching the polytope hull.
"""

import itertools

import numpy as np

from temponet import (
    build_flow_system,
    kernel_basis,
    seed_pool,
    taboo_search,
    variation_of_information,
)

system = build_flow_system((10, 8, 6), (12, 10, 2))
print(f"system: {system.k} x {system.l} communities, {system.node_count} nodes")
print("kernel dimension:", len(kernel_basis(system)))

# a 3 x 3 flow is fixed by its four top-left cells: the row and column
# sums give the rest, and a flow is feasible when no cell is negative
rows, cols = np.array(system.sizes_from), np.array(system.sizes_to)
solutions = []
for cells in itertools.product(range(max(rows) + 1), repeat=4):
    u = np.zeros((3, 3), dtype=np.int64)
    u[:2, :2] = np.reshape(cells, (2, 2))
    u[:2, 2] = rows[:2] - u[:2, :2].sum(axis=1)
    u[2] = cols - u[:2].sum(axis=0)
    if (u >= 0).all():
        solutions.append(u)
vis = np.array([variation_of_information(u) for u in solutions])
print(f"{len(solutions)} feasible flows; VI range [{vis.min():.4f}, {vis.max():.4f}]")

names = ["mi_greedy", "sorted_residual", "max_chunk", "northwest", "proportional"]
pool = seed_pool(system)
pool_vi = [variation_of_information(flow) for flow in pool]
for name, vi in zip(names, pool_vi):
    print(f"  seed {name:>16}: VI = {vi:.4f}")

trace = []
seed = pool[int(np.argmin(pool_vi))]
best = taboo_search(system, seed, kernel_basis(system), trace=trace)
print("taboo search found VI =", round(variation_of_information(best), 6))
print("global optimum        =", round(float(vis.min()), 6))
print("best flow:")
for row in best:
    print("   ", " ".join(f"{int(x):>3}" for x in row))

# sparser solutions (more zero cells) tend to be more similar (lower VI)
zeros = np.array([(u == 0).sum() for u in solutions])
for z in sorted(set(zeros)):
    sel = zeros == z
    print(f"  {z} zero cells: {sel.sum():>4} flows, mean VI {vis[sel].mean():.4f}")
