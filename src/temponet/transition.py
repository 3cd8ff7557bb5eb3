"""Node flows between consecutive clusterings.

The feasible flows form the lattice points of a transportation polytope
``Ax = B`` where ``A`` is the incidence matrix of the complete bipartite
community graph and ``B`` stacks the community sizes of both timesteps.
This module provides the exact lattice count, a pool of one-pass greedy
seed heuristics, and the search that walks the polytope hull along
kernel-basis directions minimizing the variation of information between the
clusterings.  The paper calls it an anytime taboo search; since it only
moves to strictly better flows, it is a steepest descent, and neither a taboo
list nor try thresholds change where it stops.  A kernel-basis move is a row
``(i, j)``: +1 at ``(i, j)`` and at the corner ``(k-1, l-1)``, -1 at
``(i, l-1)`` and ``(k-1, j)``.  One table, each move's four flat cells
(``_move_cells``) with their signs (``_MOVE_SIGNS``), serves both the jump
scores and the flows the search moves to.

Optional per-cell lower bounds pin flows (used by the pipeline to force
user-specified kills into the death-adjustment column); all algorithms
operate on the shifted slack problem and report full matrices.

``mi_greedy`` and ``taboo_search`` score a cell holding ``v`` of ``n`` nodes
by its VI contribution ``-(v/n) [log(v/r) + log(v/c)]``, where ``r`` and
``c`` are its row and column community sizes.  The logs come from one table
per size, ``math.log(v / size)`` for ``v = 0..size``, built the first time
a size is scored and kept for later transitions (up to 1,024 sizes).  The
tables let a whole matrix of contributions be scored with numpy gathers.
``np.log`` cannot replace them: it differs from ``math.log`` in the last bit
on some inputs, and those bits decide ties between seeds and between jumps.

The matrices here are small (a few to a few thousand cells), so a numpy call
costs more than the arithmetic it does.  Each whole-matrix quantity (a
flow's VI terms, the proportional product, a score table) is therefore one
numpy pass, and the bookkeeping between passes (residuals, commits, the
chunks of a materialized flow) runs on Python ints and lists.
"""

from __future__ import annotations

import functools
import itertools
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

    def is_feasible(self, flow) -> bool:
        u = np.asarray(flow, dtype=np.int64)
        return (
            u.shape == (self.k, self.l)
            and bool((u >= self.lower).all())
            and u.sum(axis=1).tolist() == list(self.sizes_from)
            and u.sum(axis=0).tolist() == list(self.sizes_to)
        )


def build_flow_system(sizes_t, sizes_t1, lower=None) -> FlowSystem:
    """Flow system between community sizes at t and t+1 (sums must match)."""
    sizes_t = tuple(getattr(sizes_t, "sizes", sizes_t))
    sizes_t1 = tuple(getattr(sizes_t1, "sizes", sizes_t1))
    return FlowSystem(sizes_t, sizes_t1, lower)


def kernel_basis(system: FlowSystem) -> np.ndarray:
    """The (k-1)(l-1) independent cycle moves spanning ker(A), as int64 rows (i, j).

    Move (i, j) adds +1 at (i, j) and at the corner (k-1, l-1), and -1 at
    (i, l-1) and (k-1, j).  The rows run in row-major order of (i, j); the
    array has shape (0, 2) when k or l is 1.
    """
    return np.indices((system.k - 1, system.l - 1), dtype=np.int64).reshape(2, -1).T


# the cells of move (i, j) in ``_move_cells`` order -- (i, j), (i, l-1),
# (k-1, j), (k-1, l-1) -- take these signs
_MOVE_SIGNS = np.array([1, -1, -1, 1], dtype=np.int64)
# what a jump by +1 (row 0) and by -1 (row 1) along a move adds to its cells;
# the cells a jump lowers bound its step
_JUMP_PATTERNS = np.array([_MOVE_SIGNS, -_MOVE_SIGNS])
_STEP_BOUNDS = np.array([np.flatnonzero(p < 0) for p in _JUMP_PATTERNS])


def _move_cells(system: FlowSystem, basis: np.ndarray) -> np.ndarray:
    """Each move's four cells as flat indices into a ``(k, l)`` flow, one row per move.

    Cell ``(r, c)`` is ``r * l + c``, so each index is affine in ``(i, j)``.
    """
    k, l = system.k, system.l
    scale = np.array([[l, l, 0, 0], [1, 0, 1, 0]])
    return basis @ scale + np.array([0, l - 1, (k - 1) * l, k * l - 1])


def variation_of_information(flow) -> float:
    """VI between the two clusterings joined by a flow (contingency) matrix.

    Natural logarithm; ``0 * log(.)`` terms are dropped.  The value is the
    standard node-weighted form ``-sum r_ij [log(r_ij/p_i) + log(r_ij/q_j)]``
    with ``r_ij = u_ij / n``.  A flow with a negative entry raises
    ``ConfigurationError``; an empty or all-zero flow has VI 0.0.

    The nonzero cells are gathered once, in row-major order, with their row
    and column sums, so each term is computed from positive numbers only and
    the terms are summed in the order of the cells.
    """
    u = np.asarray(flow, dtype=np.float64)
    if u.size == 0:
        return 0.0
    if u.min() < 0:
        raise ConfigurationError("flow entries must be non-negative")
    n = u.sum()
    if n <= 0:
        return 0.0
    i, j = u.nonzero()
    v = u[i, j]
    terms = (v / n) * (np.log(v / u.sum(axis=1)[i]) + np.log(v / u.sum(axis=0)[j]))
    return float(-terms.sum()) + 0.0  # normalize -0.0


# ---------------------------------------------------------------------------
# exact lattice count
# ---------------------------------------------------------------------------


def count_lattice(system: FlowSystem, cap: int | None = None) -> int:
    """Number of feasible integer flows, by bounded nested enumeration.

    The innermost free cell's feasible range is counted arithmetically, which
    makes counting much faster than materializing every solution.  Raises
    ``LatticeOverflowError`` as soon as the running count exceeds ``cap``.
    """
    rows, cols = system.row_slack.tolist(), system.col_slack.tolist()
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


# ---------------------------------------------------------------------------
# seed heuristics
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _log_table(size: int) -> np.ndarray:
    """Read-only ``math.log(v / size)`` for ``v = 0..size``; 0.0 stands in at ``v = 0``."""
    table = np.array([0.0] + [math.log(v / size) for v in range(1, size + 1)])
    table.flags.writeable = False
    return table


# one entry: mi_greedy and the search of one transition share it, and no
# finished transition's tables stay alive
@functools.lru_cache(maxsize=1)
def _log_tables(
    sizes_from: tuple[int, ...], sizes_to: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_log_table`` of every row size, then of every column size, in one array.

    Also returns the offset of each row's table and of each column's table
    in that array, so a cell ``(i, j)`` holding ``v`` nodes reads its logs at
    ``row_at[i] + v`` and ``col_at[j] + v``.  The arrays are read-only, as
    every caller of the cache gets the same ones.
    """
    sizes = sizes_from + sizes_to
    at = np.cumsum([0] + [s + 1 for s in sizes[:-1]])
    logs = np.concatenate([_log_table(s) for s in sizes])
    tables = logs, at[: len(sizes_from)], at[len(sizes_from) :]
    for table in tables:
        table.flags.writeable = False
    return tables


def _contrib(v, n, row_log, col_log):
    """Additive VI contribution of cells holding ``v`` nodes (scalars or arrays).

    ``row_log`` and ``col_log`` are the cells' ``log(v / size)`` table
    entries; at ``v = 0`` both are 0.0, so an empty cell contributes zero.
    """
    return -(v / n) * (row_log + col_log)


def mi_greedy(system: FlowSystem) -> np.ndarray:
    """One-pass greedy committing the flow with the smallest VI increment.

    Each step commits ``min(row residual, column residual)`` at the open cell
    whose final contribution to the VI sum is smallest, until all residuals
    are zero.  Ties break on the lowest row-major cell index.

    A ``(k, l)`` matrix holds every open cell's VI increment and ``+inf`` on
    closed cells, so ``np.argmin`` picks the cell with that tie-break.  The
    matrix is scored once by numpy gathers from the per-size tables of
    ``math.log(v / size)`` (``_log_table``), never by ``np.log``, which
    differs from ``math.log`` in the last bit on some inputs and so could
    break a tie the other way.  A commit at ``(i, j)`` changes only
    ``rr[i]`` and ``cr[j]`` and closes at least one of them: the closed line
    is set to ``inf`` and only the open cells of the line that stays open are
    rescored, in Python from the same tables.  That is O(k·l) scoring once
    and O(k + l) per commit, with the arithmetic of a full rescan per commit,
    so the flow is the one that rescan returns.
    """
    k, l = system.k, system.l
    n = float(system.node_count)
    logs, row_at, col_at = _log_tables(system.sizes_from, system.sizes_to)
    lower = system.lower
    ri, cj = row_at[:, None], col_at[None, :]
    top = lower + np.minimum.outer(system.row_slack, system.col_slack)
    base = _contrib(lower, n, logs[ri + lower], logs[cj + lower])
    delta = _contrib(top, n, logs[ri + top], logs[cj + top]) - base
    delta[system.row_slack == 0, :] = np.inf
    delta[:, system.col_slack == 0] = np.inf

    rr = system.row_slack.tolist()
    cr = system.col_slack.tolist()
    row_at, col_at = row_at.tolist(), col_at.tolist()
    low, base, logs = lower.tolist(), base.tolist(), logs.tolist()
    u = lower.copy()
    open_rows = [i for i in range(k) if rr[i] > 0]
    open_cols = [j for j in range(l) if cr[j] > 0]

    def score(i: int, j: int) -> float:
        v = low[i][j] + min(rr[i], cr[j])
        return _contrib(v, n, logs[row_at[i] + v], logs[col_at[j] + v]) - base[i][j]

    while open_rows and open_cols:
        i, j = divmod(int(delta.argmin()), l)
        m = min(rr[i], cr[j])
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
    rr = system.row_slack.tolist()
    cr = system.col_slack.tolist()
    u = system.lower.copy()
    while max(rr) > 0:
        i = rr.index(max(rr))
        j = cr.index(max(cr))
        m = min(rr[i], cr[j])
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
    rr = system.row_slack.tolist()
    cr = system.col_slack.tolist()
    u = system.lower.copy()
    while max(rr) > 0:
        m = min(max(rr), max(cr))
        i = next(a for a, r in enumerate(rr) if r >= m)
        j = next(b for b, c in enumerate(cr) if c >= m)
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
    return u


def northwest_sorted(system: FlowSystem) -> np.ndarray:
    """Northwest-corner rule on the size-sorted communities.

    Rows and columns are visited by falling slack; ``sorted`` is stable, also
    with ``reverse``, so ties keep index order.
    """
    rr = system.row_slack.tolist()
    cr = system.col_slack.tolist()
    ri = sorted(range(system.k), key=rr.__getitem__, reverse=True)
    cj = sorted(range(system.l), key=cr.__getitem__, reverse=True)
    rem_r = [rr[i] for i in ri]
    rem_c = [cr[j] for j in cj]
    u = system.lower.copy()
    a = b = 0
    while a < len(ri) and b < len(cj):
        m = min(rem_r[a], rem_c[b])
        u[ri[a], cj[b]] += m
        rem_r[a] -= m
        rem_c[b] -= m
        if rem_r[a] == 0:
            a += 1
        if rem_c[b] == 0:
            b += 1
    return u


def proportional_fill(system: FlowSystem) -> np.ndarray:
    """Rounded independence product ``s_i * s'_j / n`` with integer repair.

    The product and its floors are one numpy pass; the deficits are then
    handed out over Python int residuals, and each cell gains at most one
    node in the fractional pass, so those gains are written in one pass.
    """
    rr = system.row_slack.astype(np.float64)
    cr = system.col_slack.astype(np.float64)
    total = rr.sum()
    u = system.lower.copy()
    if total <= 0:
        return u
    target = np.outer(rr, cr) / total
    base = np.floor(target).astype(np.int64)
    rem_r = (system.row_slack - base.sum(axis=1)).tolist()
    rem_c = (system.col_slack - base.sum(axis=0)).tolist()
    frac = target - base
    # distribute the deficits cell by cell, largest fractional part first; a
    # stable sort keeps ties in row-major order
    l = system.l
    gains = []
    for cell in np.argsort(-frac, axis=None, kind="stable").tolist():
        i, j = divmod(cell, l)
        if rem_r[i] > 0 and rem_c[j] > 0:
            gains.append(cell)
            rem_r[i] -= 1
            rem_c[j] -= 1
    base.flat[gains] += 1
    # the fractional pass can strand deficits; finish northwest style, each
    # into the first column with the largest residual
    for i in range(system.k):
        while rem_r[i] > 0:
            j = rem_c.index(max(rem_c))
            m = min(rem_r[i], rem_c[j])
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


# ---------------------------------------------------------------------------
# taboo search
# ---------------------------------------------------------------------------


class SearchConfig:
    """No settings; ``taboo_search`` accepts an instance and ignores it.

    The descent stops by itself at a point no jump improves, so it needs no
    try thresholds.
    """


def _jump_scorer(system: FlowSystem, cells: np.ndarray):
    """Scores every jump of ``taboo_search`` along the moves with these ``_move_cells``.

    Returns ``score(u, vi)`` for a feasible flow ``u`` of VI ``vi``.  It
    gives three arrays over the jumps whose step is at least 1, in basis
    order with the ``+`` sign before the ``-``: the jump as ``2 * move +
    (1 for the - sign)``, its step, and the VI it reaches.  That VI is
    ``vi`` plus the change of each of the move's cells (i, j), (i, l-1),
    (k-1, j), (k-1, l-1), summed in that order; each change is a difference
    of two contributions read from the log tables (see the module
    docstring).
    """
    l, n = system.l, float(system.node_count)
    logs, row_at, col_at = _log_tables(system.sizes_from, system.sizes_to)
    row_base, col_base = row_at[cells // l], col_at[cells % l]
    floor = system.lower.ravel()[cells]

    def score(u: np.ndarray, vi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        held = u.ravel()[cells]
        steps = (held - floor)[:, _STEP_BOUNDS].min(axis=2).ravel()
        jumps = steps.nonzero()[0]
        b = jumps >> 1
        old = held[b]
        values = np.array((old, old + steps[jumps, None] * _JUMP_PATTERNS[jumps & 1]))
        terms = _contrib(values, n, logs[row_base[b] + values], logs[col_base[b] + values])
        d = terms[1] - terms[0]
        return jumps, steps[jumps], vi + (((d[:, 0] + d[:, 1]) + d[:, 2]) + d[:, 3])

    return score


def taboo_search(
    system: FlowSystem,
    seed: np.ndarray,
    basis: np.ndarray,
    cfg: SearchConfig | None = None,
    trace: list | None = None,
) -> np.ndarray:
    """Steepest descent over the kernel-basis jumps; the paper's taboo hull search.

    From the current flow the search jumps, for every kernel-basis move and
    both signs, to the boundary of feasibility (the largest multiple of the
    move that keeps a valid flow).  It moves to the jump with the lowest
    VI (within 1e-12, the lexicographically smallest flow) while that jump
    beats the current VI by more than 1e-12.  A taboo list and try thresholds
    cannot change the result: every visited point is worse than the current
    one, and once the best jump fails, every other jump from the same point
    fails too.  ``basis`` holds the moves as ``kernel_basis`` rows.  ``cfg``
    is ignored (see ``SearchConfig``).  ``trace`` receives ``(moves, VI)``
    at the start and after each move.  Always returns a feasible flow no
    worse than the seed.

    Each iteration scores all jumps at once with numpy gathers from the
    per-size tables of ``math.log(v / size)`` (see ``_jump_scorer``), never
    by ``np.log``, which differs from ``math.log`` in the last bit on some
    inputs.  When no jump beats the current VI the search stops; otherwise
    the jumps are ranked one by one in basis order, the ``+`` sign before the
    ``-``, with the tolerance and tie-break above.
    """
    u = np.asarray(seed, dtype=np.int64).copy()
    if not system.is_feasible(u):
        raise ConfigurationError("taboo_search seed is not a feasible flow")
    flat = u.reshape(-1)  # a view: a move written here moves u
    cells = _move_cells(system, basis)
    score = _jump_scorer(system, cells)

    def endpoint(jump: int, step: int) -> list[int]:
        out = flat.copy()
        out[cells[jump >> 1]] += step * _MOVE_SIGNS
        return out.tolist()

    cur_vi = variation_of_information(u)
    moves = 0
    if trace is not None:
        trace.append((moves, cur_vi))
    while True:
        jumps, sizes, cand = score(u, cur_vi)
        if not (cand < cur_vi - 1e-12).any():
            return u
        best = None  # (vi, jump, signed step)
        best_flat = None
        for cand_vi, jump, size in zip(cand.tolist(), jumps.tolist(), sizes.tolist()):
            step = -size if jump & 1 else size
            if best is None or cand_vi < best[0] - 1e-12:
                best = (cand_vi, jump, step)
                best_flat = None
            elif abs(cand_vi - best[0]) <= 1e-12:
                # tie: lowest flattened lexicographic endpoint wins
                if best_flat is None:
                    best_flat = endpoint(best[1], best[2])
                cand_flat = endpoint(jump, step)
                if cand_flat < best_flat:
                    best = (cand_vi, jump, step)
                    best_flat = cand_flat
        if best[0] >= cur_vi - 1e-12:
            return u
        flat[cells[best[1] >> 1]] += best[2] * _MOVE_SIGNS
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
    random without replacement.  Row sums must match the group populations;
    a negative flow entry raises ``ConfigurationError`` before any draw.

    Each group draws one ``rng.permutation`` of its size, in group order,
    also when it is empty or its row sends it to one target; the flow's row
    then cuts that permutation into consecutive chunks, column by column.
    """
    u = np.asarray(flow, dtype=np.int64)
    if len(groups) != u.shape[0]:
        raise AssertionError("group count does not match the flow rows")
    if u.size and u.min() < 0:
        raise ConfigurationError("flow entries must be non-negative")
    out = []
    for i, (group, row) in enumerate(zip(groups, u.tolist())):
        if sum(row) != len(group):
            raise AssertionError(
                f"row {i}: flow moves {sum(row)} nodes, community holds {len(group)}"
            )
        perm = [group[idx] for idx in rng.permutation(len(group)).tolist()]
        starts = itertools.accumulate(row, initial=0)
        out.append([perm[at : at + take] for at, take in zip(starts, row)])
    return out
