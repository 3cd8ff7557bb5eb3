"""Node flows between consecutive clusterings.

The feasible flows form the lattice points of a transportation polytope
``Ax = B`` where ``A`` is the incidence matrix of the complete bipartite
community graph and ``B`` stacks the community sizes of both timesteps.
This module provides the exact enumerator (verification oracle), a pool of
one-pass greedy seed heuristics, and the search that walks the polytope hull
along kernel-basis directions minimizing the variation of information between
the clusterings.  The paper calls it an anytime taboo search; since it only
moves to strictly better flows, it is a steepest descent, and neither a taboo
list nor try thresholds change where it stops.

Optional per-cell lower bounds pin flows (used by the pipeline to force
user-specified kills into the death-adjustment column); all algorithms
operate on the shifted slack problem and report full matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, LatticeOverflowError


@dataclass
class FlowSystem:
    """Balanced transportation system between two community size multisets."""

    sizes_from: tuple[int, ...]
    sizes_to: tuple[int, ...]
    lower: np.ndarray = None  # (k, l) pinned minimum flow per cell

    def __post_init__(self):
        self.sizes_from = tuple(int(s) for s in self.sizes_from)
        self.sizes_to = tuple(int(s) for s in self.sizes_to)
        if min(self.sizes_from, default=-1) < 0 or min(self.sizes_to, default=-1) < 0:
            raise ConfigurationError("community sizes must be non-negative")
        if not self.sizes_from or not self.sizes_to:
            raise ConfigurationError("both timesteps need at least one community")
        if sum(self.sizes_from) != sum(self.sizes_to):
            raise ConfigurationError(
                f"node counts differ across the boundary: "
                f"{sum(self.sizes_from)} vs {sum(self.sizes_to)}"
            )
        k, l = len(self.sizes_from), len(self.sizes_to)
        if self.lower is None:
            self.lower = np.zeros((k, l), dtype=np.int64)
        else:
            self.lower = np.asarray(self.lower, dtype=np.int64)
            if self.lower.shape != (k, l):
                raise ConfigurationError("lower-bound matrix shape mismatch")
            if self.lower.min() < 0:
                raise ConfigurationError("lower bounds must be non-negative")
        self.row_slack = np.asarray(self.sizes_from, dtype=np.int64) - self.lower.sum(axis=1)
        self.col_slack = np.asarray(self.sizes_to, dtype=np.int64) - self.lower.sum(axis=0)
        if self.row_slack.min() < 0 or self.col_slack.min() < 0:
            raise ConfigurationError("lower bounds exceed a community size")

    @property
    def k(self) -> int:
        return len(self.sizes_from)

    @property
    def l(self) -> int:
        return len(self.sizes_to)

    @property
    def node_count(self) -> int:
        return sum(self.sizes_from)

    def equations(self, reduced: bool = True):
        """Incidence matrix ``A`` and right-hand side ``B`` of the flow system.

        Rows are the k row-sum equations followed by the l column-sum
        equations; columns index the flows row-major.  ``rank(A) = k + l - 1``
        so with ``reduced`` the redundant last equation is dropped.
        """
        k, l = self.k, self.l
        a = np.zeros((k + l, k * l), dtype=np.int64)
        for i in range(k):
            a[i, i * l : (i + 1) * l] = 1
        for j in range(l):
            a[k + j, j::l] = 1
        b = np.array(self.sizes_from + self.sizes_to, dtype=np.int64)
        if reduced:
            return a[:-1], b[:-1]
        return a, b

    def is_feasible(self, flow) -> bool:
        u = np.asarray(flow, dtype=np.int64)
        return (
            u.shape == (self.k, self.l)
            and bool((u >= self.lower).all())
            and bool((u.sum(axis=1) == np.asarray(self.sizes_from)).all())
            and bool((u.sum(axis=0) == np.asarray(self.sizes_to)).all())
        )


def build_flow_system(sizes_t, sizes_t1, lower=None) -> FlowSystem:
    """Flow system between community sizes at t and t+1 (sums must match)."""
    sizes_t = tuple(getattr(sizes_t, "sizes", sizes_t))
    sizes_t1 = tuple(getattr(sizes_t1, "sizes", sizes_t1))
    return FlowSystem(sizes_t, sizes_t1, lower)


@dataclass
class KernelVector:
    """A 4-sparse cycle move: +1 at (i, j) and (ref_row, ref_col), -1 at the mixed cells."""

    i: int
    j: int
    ref_row: int
    ref_col: int

    def dense(self, k: int, l: int) -> np.ndarray:
        v = np.zeros((k, l), dtype=np.int64)
        v[self.i, self.j] = 1
        v[self.i, self.ref_col] = -1
        v[self.ref_row, self.j] = -1
        v[self.ref_row, self.ref_col] = 1
        return v


def kernel_basis(system: FlowSystem) -> list[KernelVector]:
    """The (k-1)(l-1) independent cycle moves spanning ker(A)."""
    k, l = system.k, system.l
    return [KernelVector(i, j, k - 1, l - 1) for i in range(k - 1) for j in range(l - 1)]


def variation_of_information(flow) -> float:
    """VI between the two clusterings joined by a flow (contingency) matrix.

    Natural logarithm; ``0 * log(.)`` terms are dropped.  The value is the
    standard node-weighted form ``-sum r_ij [log(r_ij/p_i) + log(r_ij/q_j)]``
    with ``r_ij = u_ij / n``.
    """
    u = np.asarray(flow, dtype=np.float64)
    if u.size == 0 or u.sum() <= 0:
        return 0.0
    if u.min() < 0:
        raise ConfigurationError("flow entries must be non-negative")
    n = u.sum()
    rows = u.sum(axis=1, keepdims=True)
    cols = u.sum(axis=0, keepdims=True)
    mask = u > 0
    r = u[mask] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = r * (
            np.log(u[mask] / np.broadcast_to(rows, u.shape)[mask])
            + np.log(u[mask] / np.broadcast_to(cols, u.shape)[mask])
        )
    return float(-terms.sum()) + 0.0  # normalize -0.0


def contingency(partition_x, partition_y) -> np.ndarray:
    """Counts matrix ``|x_i & y_j|`` for two partitions given as iterables of id sets."""
    xs = [frozenset(g) for g in partition_x]
    ys = [frozenset(g) for g in partition_y]
    all_x = set().union(*xs) if xs else set()
    all_y = set().union(*ys) if ys else set()
    if sum(len(g) for g in xs) != len(all_x) or sum(len(g) for g in ys) != len(all_y):
        raise ConfigurationError("partitions must consist of disjoint groups")
    if all_x != all_y:
        raise ConfigurationError("partitions cover different node sets")
    u = np.zeros((len(xs), len(ys)), dtype=np.int64)
    where_y = {}
    for j, g in enumerate(ys):
        for node in g:
            where_y[node] = j
    for i, g in enumerate(xs):
        for node in g:
            u[i, where_y[node]] += 1
    return u


def vi_partitions(partition_x, partition_y) -> float:
    """VI between two partitions of the same node set."""
    return variation_of_information(contingency(partition_x, partition_y))


# ---------------------------------------------------------------------------
# exact lattice enumeration
# ---------------------------------------------------------------------------


def _slack_problem(system: FlowSystem):
    return list(int(x) for x in system.row_slack), list(int(x) for x in system.col_slack)


def count_lattice(system: FlowSystem, cap: int | None = None) -> int:
    """Number of feasible integer flows, by bounded nested enumeration.

    The innermost free cell's feasible range is counted arithmetically, which
    makes counting much faster than materializing every solution.  Raises
    ``LatticeOverflowError`` as soon as the running count exceeds ``cap``.
    """
    rows, cols = _slack_problem(system)
    k, l = len(rows), len(cols)
    if k == 1 or l == 1:
        return 1
    count = 0
    c = cols[:]  # mutable column slacks

    def rec(i: int, j: int, row_rem: int, suffix: int):
        # suffix = sum of c[j'] for j' > j at the start of row i
        nonlocal count
        cj = c[j]
        hi = row_rem if row_rem < cj else cj
        lo = row_rem - suffix
        if lo < 0:
            lo = 0
        if lo > hi:
            return
        last_row = i == k - 2
        if last_row and j == l - 2:
            count += hi - lo + 1
            if cap is not None and count > cap:
                raise LatticeOverflowError(cap, count)
            return
        if j == l - 2:
            for x in range(lo, hi + 1):
                tail = row_rem - x
                c[j] -= x
                c[l - 1] -= tail
                nsuf = sum(c[1:])
                rec(i + 1, 0, rows[i + 1], nsuf)
                c[j] += x
                c[l - 1] += tail
        else:
            nxt = c[j + 1]
            for x in range(lo, hi + 1):
                c[j] -= x
                rec(i, j + 1, row_rem - x, suffix - nxt)
                c[j] += x

    rec(0, 0, rows[0], sum(c[1:]))
    return count


def iter_lattice(system: FlowSystem):
    """Yield every feasible flow matrix exactly once (numpy int64 arrays)."""
    rows, cols = _slack_problem(system)
    k, l = len(rows), len(cols)
    lower = system.lower
    if k == 1:
        yield np.array([cols], dtype=np.int64) + lower
        return
    if l == 1:
        yield np.array([[r] for r in rows], dtype=np.int64) + lower
        return
    c = cols[:]
    u = np.zeros((k, l), dtype=np.int64)

    def rec(i: int, j: int, row_rem: int, suffix: int):
        cj = c[j]
        hi = row_rem if row_rem < cj else cj
        lo = row_rem - suffix
        if lo < 0:
            lo = 0
        if lo > hi:
            return
        for x in range(lo, hi + 1):
            u[i, j] = x
            c[j] -= x
            if j == l - 2:
                tail = row_rem - x
                u[i, l - 1] = tail
                c[l - 1] -= tail
                if i == k - 2:
                    u[k - 1, :] = c
                    yield u + lower
                else:
                    yield from rec(i + 1, 0, rows[i + 1], sum(c[1:]))
                c[l - 1] += tail
            else:
                yield from rec(i, j + 1, row_rem - x, suffix - c[j + 1])
            c[j] += x

    yield from rec(0, 0, rows[0], sum(c[1:]))


def enumerate_lattice(system: FlowSystem, cap: int) -> list[np.ndarray]:
    """All feasible flows as a list; overflow signal when more than ``cap`` exist."""
    out = []
    for u in iter_lattice(system):
        if len(out) >= cap:
            raise LatticeOverflowError(cap, len(out) + 1)
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# seed heuristics
# ---------------------------------------------------------------------------


def _cell_contrib(value: float, row_total: float, col_total: float, n: float) -> float:
    """Additive VI contribution of one contingency cell given fixed marginals."""
    if value <= 0:
        return 0.0
    return -(value / n) * (math.log(value / row_total) + math.log(value / col_total))


def mi_greedy(system: FlowSystem) -> np.ndarray:
    """One-pass greedy committing the flow with the smallest VI increment.

    Each step commits ``min(row residual, column residual)`` at the open cell
    whose final contribution to the VI sum is smallest, until all residuals
    are zero.  Ties break on the lowest row-major cell index.

    A ``(k, l)`` matrix holds every open cell's VI increment and ``+inf`` on
    closed cells, so ``np.argmin`` picks the cell with that tie-break.  A
    commit at ``(i, j)`` changes only ``rr[i]`` and ``cr[j]`` and closes at
    least one of them: the closed line is set to ``inf`` and only the open
    cells of the line that stays open are rescored.  That is O(k·l) scoring
    once and O(k + l) per commit, with the same ``math.log`` arithmetic, so
    the flow is the one a full rescan per commit returns.
    """
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    k, l = system.k, system.l
    n = float(system.node_count)
    rows_full = [float(s) for s in system.sizes_from]
    cols_full = [float(s) for s in system.sizes_to]
    lower = system.lower
    u = lower.copy()
    open_rows = {i for i in range(k) if rr[i] > 0}
    open_cols = {j for j in range(l) if cr[j] > 0}

    def score(i: int, j: int) -> float:
        m = min(int(rr[i]), int(cr[j]))
        low = int(lower[i, j])
        return _cell_contrib(low + m, rows_full[i], cols_full[j], n) - _cell_contrib(
            low, rows_full[i], cols_full[j], n
        )

    delta = np.full((k, l), np.inf)
    for i in open_rows:
        for j in open_cols:
            delta[i, j] = score(i, j)
    while open_rows and open_cols:
        i, j = divmod(int(np.argmin(delta)), l)
        m = min(int(rr[i]), int(cr[j]))
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
        if rr[i] == 0:
            open_rows.remove(i)
            delta[i, :] = np.inf
        if cr[j] == 0:
            open_cols.remove(j)
            delta[:, j] = np.inf
        if rr[i] > 0:
            for jj in open_cols:
                delta[i, jj] = score(i, jj)
        if cr[j] > 0:
            for ii in open_rows:
                delta[ii, j] = score(ii, j)
    return u


def sorted_residual_greedy(system: FlowSystem) -> np.ndarray:
    """Repeatedly match the largest remaining source with the largest target."""
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    u = system.lower.copy()
    while rr.max() > 0:
        i = int(np.argmax(rr))
        j = int(np.argmax(cr))
        m = min(int(rr[i]), int(cr[j]))
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
    return u


def max_chunk_greedy(system: FlowSystem) -> np.ndarray:
    """Commit the largest feasible single flow first (sparsity objective).

    The largest commit is ``m = min(max row residual, max column residual)``,
    and the lowest row-major cell where it fits is the first row and the
    first column with a residual of at least ``m``.
    """
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    u = system.lower.copy()
    while rr.max() > 0:
        m = min(int(rr.max()), int(cr.max()))
        i = int(np.argmax(rr >= m))
        j = int(np.argmax(cr >= m))
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
    return u


def northwest_sorted(system: FlowSystem) -> np.ndarray:
    """Northwest-corner rule on the size-sorted communities."""
    rr = system.row_slack.astype(np.int64)
    cr = system.col_slack.astype(np.int64)
    ri = sorted(range(system.k), key=lambda i: (-rr[i], i))
    cj = sorted(range(system.l), key=lambda j: (-cr[j], j))
    rem_r = [int(rr[i]) for i in ri]
    rem_c = [int(cr[j]) for j in cj]
    u = system.lower.copy()
    a = b = 0
    while a < len(ri) and b < len(cj):
        m = min(rem_r[a], rem_c[b])
        u[ri[a], cj[b]] += m
        rem_r[a] -= m
        rem_c[b] -= m
        if rem_r[a] == 0:
            a += 1
        if b < len(cj) and rem_c[b] == 0:
            b += 1
    return u


def proportional_fill(system: FlowSystem) -> np.ndarray:
    """Rounded independence product ``s_i * s'_j / n`` with integer repair."""
    rr = system.row_slack.astype(np.float64)
    cr = system.col_slack.astype(np.float64)
    total = rr.sum()
    u = system.lower.copy()
    if total <= 0:
        return u
    target = np.outer(rr, cr) / total
    base = np.floor(target).astype(np.int64)
    rem_r = system.row_slack - base.sum(axis=1)
    rem_c = system.col_slack - base.sum(axis=0)
    frac = target - base
    # distribute the deficits cell by cell, largest fractional part first; a
    # stable sort keeps ties in row-major order
    for cell in np.argsort(-frac, axis=None, kind="stable").tolist():
        i, j = divmod(cell, system.l)
        if rem_r[i] > 0 and rem_c[j] > 0:
            base[i, j] += 1
            rem_r[i] -= 1
            rem_c[j] -= 1
    # the fractional pass can strand deficits; finish northwest style
    for i in range(system.k):
        while rem_r[i] > 0:
            j = int(np.argmax(rem_c))
            m = min(int(rem_r[i]), int(rem_c[j]))
            base[i, j] += m
            rem_r[i] -= m
            rem_c[j] -= m
    return u + base


def seed_pool(system: FlowSystem) -> list[np.ndarray]:
    """Five feasible starting flows from one-pass greedy heuristics."""
    return [
        mi_greedy(system),
        sorted_residual_greedy(system),
        max_chunk_greedy(system),
        northwest_sorted(system),
        proportional_fill(system),
    ]


def best_of_pool(system: FlowSystem) -> np.ndarray:
    """Pool member with the lowest VI (ties: earliest heuristic)."""
    pool = seed_pool(system)
    scores = [variation_of_information(u) for u in pool]
    return pool[int(np.argmin(scores))]


# ---------------------------------------------------------------------------
# taboo search
# ---------------------------------------------------------------------------


class SearchConfig:
    """No settings; ``taboo_search`` accepts an instance and ignores it.

    The descent stops by itself at a point no jump improves, so it needs no
    try thresholds.
    """


def taboo_search(
    system: FlowSystem,
    seed: np.ndarray | None = None,
    basis: list[KernelVector] | None = None,
    cfg: SearchConfig | None = None,
    trace: list | None = None,
) -> np.ndarray:
    """Steepest descent over the kernel-basis jumps; the paper's taboo hull search.

    From the current flow the search jumps, for every kernel-basis vector and
    both signs, to the boundary of feasibility (the largest multiple of the
    vector that keeps a valid flow).  It moves to the jump with the lowest
    VI (within 1e-12, the lexicographically smallest flow) while that jump
    beats the current VI by more than 1e-12.  A taboo list and try thresholds
    cannot change the result: every visited point is worse than the current
    one, and once the best jump fails, every other jump from the same point
    fails too.  ``cfg`` is ignored (see ``SearchConfig``).  ``trace``
    receives ``(moves, VI)`` at the start and after each move.  Always
    returns a feasible flow no worse than the seed.
    """
    if basis is None:
        basis = kernel_basis(system)
    if seed is None:
        seed = best_of_pool(system)
    u = np.asarray(seed, dtype=np.int64).copy()
    if not system.is_feasible(u):
        raise ConfigurationError("taboo_search seed is not a feasible flow")
    k, l, n = system.k, system.l, float(system.node_count)
    rows_full = [float(s) for s in system.sizes_from]
    cols_full = [float(s) for s in system.sizes_to]
    lower = system.lower

    def contrib(val, i, j):
        return _cell_contrib(float(val), rows_full[i], cols_full[j], n)

    cur_vi = variation_of_information(u)
    moves = 0
    if trace is not None:
        trace.append((moves, cur_vi))
    while True:
        best = None  # (vi, vector, signed step)
        best_flat = None
        for v in basis:
            cells = ((v.i, v.j), (v.i, v.ref_col), (v.ref_row, v.j), (v.ref_row, v.ref_col))
            for sign in (1, -1):
                if sign == 1:
                    step = min(
                        int(u[v.i, v.ref_col] - lower[v.i, v.ref_col]),
                        int(u[v.ref_row, v.j] - lower[v.ref_row, v.j]),
                    )
                else:
                    step = min(
                        int(u[v.i, v.j] - lower[v.i, v.j]),
                        int(u[v.ref_row, v.ref_col] - lower[v.ref_row, v.ref_col]),
                    )
                if step < 1:
                    continue
                deltas = (sign * step, -sign * step, -sign * step, sign * step)
                dvi = 0.0
                for (ci, cj), dd in zip(cells, deltas):
                    old = int(u[ci, cj])
                    dvi += contrib(old + dd, ci, cj) - contrib(old, ci, cj)
                cand_vi = cur_vi + dvi
                if best is None or cand_vi < best[0] - 1e-12:
                    best = (cand_vi, v, sign * step)
                    best_flat = None
                elif abs(cand_vi - best[0]) <= 1e-12:
                    # tie: lowest flattened lexicographic endpoint wins
                    if best_flat is None:
                        best_flat = (u + best[2] * best[1].dense(k, l)).ravel().tolist()
                    cand_flat = (u + sign * step * v.dense(k, l)).ravel().tolist()
                    if cand_flat < best_flat:
                        best = (cand_vi, v, sign * step)
                        best_flat = cand_flat
        if best is None or best[0] >= cur_vi - 1e-12:
            return u
        u += best[2] * best[1].dense(k, l)
        cur_vi = variation_of_information(u)
        moves += 1
        if not system.is_feasible(u):
            raise AssertionError("taboo move left the solution space")
        if trace is not None:
            trace.append((moves, cur_vi))


def materialize_flow(flow, groups, rng) -> list[list[list[int]]]:
    """Split each source community's node-id list into per-target chunks.

    ``groups[i]`` holds the node ids of source community ``i``; the result's
    ``[i][j]`` is the list of ids flowing from i to j, drawn uniformly at
    random without replacement.  Row sums must match the group populations.
    """
    u = np.asarray(flow, dtype=np.int64)
    if len(groups) != u.shape[0]:
        raise AssertionError("group count does not match the flow rows")
    out = []
    for i, group in enumerate(groups):
        if int(u[i].sum()) != len(group):
            raise AssertionError(
                f"row {i}: flow moves {int(u[i].sum())} nodes, community holds {len(group)}"
            )
        perm = [group[idx] for idx in rng.permutation(len(group))]
        chunks = []
        at = 0
        for j in range(u.shape[1]):
            take = int(u[i, j])
            chunks.append(perm[at : at + take])
            at += take
        out.append(chunks)
    return out
