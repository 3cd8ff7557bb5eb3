"""Independent verification oracles used across the test suite.

Everything here is deliberately written along a different path than the
library: realizability by exhaustive backtracking over adjacency structures,
VI through entropies, modularity straight from the definition, connectivity
through the Laplacian spectrum, tiny flow counts by filtering the full cell
product, and stub pairing through a full cumulative sum per draw.  The flow
search and three seed heuristics have their earlier forms here: the taboo
search with its hashed visited set and try thresholds, max-chunk and
min-VI greedy scanning every open cell per commit, and the proportional fill
ordering its cells with a Python ``sorted``.  The lifecycle classifier and
its event table keep their earlier forms as well, with every rule written out
once per side.  So do the parity repair with its separate fallback loop,
snapshot validation with its separate degree passes, and the CSV export with
one run merger per field.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import os
from collections import defaultdict

import numpy as np

from temponet import ConfigurationError, GraphabilityError, WiringError, variation_of_information
from temponet.lifecycle import (
    BORN,
    CONTINUES,
    CONTINUES_GROWING,
    CONTINUES_SHRINKING,
    DEAD,
    END_OF_T,
    MERGED_FROM,
    MERGED_INTO,
    SPLIT_FROM,
    SPLIT_INTO,
    START_OF_T1,
    EventRecord,
    LifecycleThresholds,
    flow_jaccard,
)


def realizable_with_parts(degrees, parts) -> bool:
    """Exhaustive check: does a simple graph with the given degrees exist,
    with edges allowed only between nodes of different parts?

    Pass distinct parts per node to allow all pairs (plain simple-graph
    realizability).  Exponential search with symmetry pruning; intended for
    small instances only.
    """
    n = len(degrees)
    rem = [int(d) for d in degrees]
    if any(d < 0 for d in rem):
        return False
    if sum(rem) % 2 == 1:
        return False
    adj = [set() for _ in range(n)]

    def solve() -> bool:
        u = -1
        for i in range(n):
            if rem[i] > 0 and (u == -1 or rem[i] > rem[u]):
                u = i
        if u == -1:
            return True
        cands = [
            v
            for v in range(n)
            if v != u and parts[v] != parts[u] and rem[v] > 0 and v not in adj[u]
        ]
        if len(cands) < rem[u]:
            return False
        # group interchangeable candidates: same part, remaining degree and adjacency
        classes: dict[tuple, list[int]] = defaultdict(list)
        for v in cands:
            classes[(parts[v], rem[v], frozenset(adj[v]))].append(v)
        class_lists = sorted(classes.values(), key=lambda vs: vs[0])
        need = rem[u]

        def pick(ci: int, left: int, chosen: list[int]) -> bool:
            if left == 0:
                rem[u] = 0
                for v in chosen:
                    rem[v] -= 1
                    adj[u].add(v)
                    adj[v].add(u)
                ok = solve()
                rem[u] = need
                for v in chosen:
                    rem[v] += 1
                    adj[u].discard(v)
                    adj[v].discard(u)
                return ok
            if ci >= len(class_lists):
                return False
            avail = class_lists[ci]
            rest = sum(len(cl) for cl in class_lists[ci + 1 :])
            for take in range(min(left, len(avail)), -1, -1):
                if left - take > rest:
                    continue
                if pick(ci + 1, left - take, chosen + avail[:take]):
                    return True
            return False

        return pick(0, need, [])

    return solve()


def realizable_degree_sequence(degrees) -> bool:
    """Simple-graph realizability by exhaustive search (no Erdos-Gallai)."""
    return realizable_with_parts(list(degrees), list(range(len(degrees))))


def realizable_clustered(sizes, membership, intra, inter) -> bool:
    """Exhaustive realizability of one clustered spec with fixed membership."""
    k = len(sizes)
    groups = [[] for _ in range(k)]
    for node, c in enumerate(membership):
        groups[c].append(node)
    for c in range(k):
        if len(groups[c]) != sizes[c]:
            raise ValueError("membership does not match the sizes")
        if not realizable_degree_sequence([intra[i] for i in groups[c]]):
            return False
    return realizable_with_parts(list(inter), list(membership))


def spectral_component_count(node_ids, links) -> int:
    """Connected components as the Laplacian zero-eigenvalue multiplicity."""
    ids = sorted(node_ids)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    lap = np.zeros((n, n))
    for u, v in links:
        if u in index and v in index:
            a, b = index[u], index[v]
            lap[a, a] += 1
            lap[b, b] += 1
            lap[a, b] -= 1
            lap[b, a] -= 1
    eig = np.linalg.eigvalsh(lap)
    return int((np.abs(eig) < 1e-8).sum())


def vi_reference(partition_x, partition_y) -> float:
    """VI via H(X) + H(Y) - 2 I(X;Y), an independent route to the same metric."""
    xs = [frozenset(g) for g in partition_x]
    ys = [frozenset(g) for g in partition_y]
    n = sum(len(g) for g in xs)
    assert n == sum(len(g) for g in ys)

    def entropy(groups):
        return -sum(
            (len(g) / n) * math.log(len(g) / n) for g in groups if len(g) > 0
        )

    mutual = 0.0
    for gx in xs:
        for gy in ys:
            joint = len(gx & gy) / n
            if joint > 0:
                mutual += joint * math.log(joint / ((len(gx) / n) * (len(gy) / n)))
    return entropy(xs) + entropy(ys) - 2.0 * mutual


def modularity_reference(snapshot) -> float:
    """Modularity straight from (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)."""
    ids = sorted(snapshot.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in snapshot.links:
        a[index[u], index[v]] = 1
        a[index[v], index[u]] = 1
    deg = a.sum(axis=1)
    two_m = deg.sum()
    comm = np.array([snapshot.nodes[nid].community for nid in ids])
    q = 0.0
    for i in range(n):
        for j in range(n):
            if comm[i] == comm[j]:
                q += a[i, j] - deg[i] * deg[j] / two_m
    return q / two_m


def brute_force_flow_count(sizes_from, sizes_to) -> int:
    """Count transportation-polytope lattice points by filtering the cell product."""
    k, l = len(sizes_from), len(sizes_to)
    cells = [(i, j) for i in range(k) for j in range(l)]
    ranges = [range(min(sizes_from[i], sizes_to[j]) + 1) for i, j in cells]
    count = 0
    for values in itertools.product(*ranges):
        u = np.array(values).reshape(k, l)
        if (u.sum(axis=1) == np.array(sizes_from)).all() and (
            u.sum(axis=0) == np.array(sizes_to)
        ).all():
            count += 1
    return count


def truncated_pmf_moments(pmf: dict[int, float]) -> tuple[float, float, float]:
    """(mean, variance, fourth central moment) of a finite integer pmf."""
    total = sum(pmf.values())
    mean = sum(v * p for v, p in pmf.items()) / total
    var = sum((v - mean) ** 2 * p for v, p in pmf.items()) / total
    mu4 = sum((v - mean) ** 4 * p for v, p in pmf.items()) / total
    return mean, var, mu4


def binomial_shifted_pmf(minimum: int, maximum: int, p: float) -> dict[int, float]:
    """Exact pmf of ``minimum + Binomial(maximum - minimum, p)``."""
    span = maximum - minimum
    return {
        minimum + k: math.comb(span, k) * p**k * (1 - p) ** (span - k)
        for k in range(span + 1)
    }


def rounded_uniform_pmf(minimum: int, maximum: int) -> dict[int, float]:
    """Exact pmf of a continuous U[minimum, maximum] draw after rounding.

    Integrating either rounding rule over a unit cell gives 1/2 to each
    neighbor (the fractional part is uniform), so nearest and stochastic
    rounding coincide for the uniform family.
    """
    width = float(maximum - minimum)
    if width == 0:
        return {minimum: 1.0}
    pmf: dict[int, float] = defaultdict(float)
    for k in range(minimum, maximum):
        pmf[k] += 0.5 / width
        pmf[k + 1] += 0.5 / width
    return dict(pmf)


def pearson_reference(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


def random_feasible(system, rng) -> np.ndarray:
    """A random feasible flow: greedy fill over uniformly shuffled open cells."""
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    u = system.lower.copy()
    while rr.max() > 0:
        open_cells = [
            (i, j) for i in range(system.k) if rr[i] > 0 for j in range(system.l) if cr[j] > 0
        ]
        i, j = open_cells[int(rng.integers(len(open_cells)))]
        m = min(int(rr[i]), int(cr[j]))
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
    return u


def degree_joint_distribution_baseline(degrees) -> np.ndarray:
    """Plain configuration-model pairing probabilities ``k_i k_j / (S - 1)``.

    Baseline for the uniform-pairing regime before the
    no-self-loop/no-multi-edge exclusions distort it at small stub counts.
    """
    d = np.asarray(list(degrees), dtype=np.float64)
    s = d.sum()
    if s < 2:
        raise ValueError("need at least two stubs")
    p = np.outer(d, d) / (s - 1.0)
    np.fill_diagonal(p, 0.0)
    return p


def reference_wire_phase(entries, shape, rng, budget, community_of=None):
    """The configuration-model wiring loop with one ``np.cumsum`` per drawn stub.

    Same contract, draw order and RNG use as ``temponet.assembler._wire_phase``:
    positions are the open stubs sorted by (total degree, id), the node being
    filled, its neighbours and (``community_of`` given) its own community get
    weight 0, and the partner is the first position whose cumulative weight
    exceeds ``min(int(beta * total), total - 1)``.  Returns (links, repairs).
    """
    entries = sorted(entries, key=lambda t: (t[1], t[0]))
    ids = [nid for nid, _, _ in entries]
    pos = {nid: p for p, nid in enumerate(ids)}
    rem = np.array([s for _, _, s in entries], dtype=np.int64)
    if int(rem.sum()) % 2 == 1:
        raise WiringError("odd number of stubs in a wiring phase")
    adjacency: dict[int, set[int]] = defaultdict(set)
    links: set[tuple[int, int]] = set()
    repairs = 0
    heap = [(-d, nid) for nid, d, s in entries if s > 0]
    heapq.heapify(heap)
    degree_of = {nid: d for nid, d, _ in entries}
    if community_of is not None:
        comm = np.array([community_of[nid] for nid in ids])

    def draw(u):
        weights = rem.copy()
        weights[pos[u]] = 0
        for v in adjacency[u]:
            weights[pos[v]] = 0
        if community_of is not None:
            weights[comm == community_of[u]] = 0
        cum = np.cumsum(weights)
        total = int(cum[-1])
        if total <= 0:
            return None
        rank = min(int(rng.beta(shape.alpha, shape.beta) * total), total - 1)
        return ids[int(np.searchsorted(cum, rank, side="right"))]

    def add_link(a, b):
        links.add((a, b) if a < b else (b, a))
        adjacency[a].add(b)
        adjacency[b].add(a)
        rem[pos[a]] -= 1
        rem[pos[b]] -= 1

    def repair(u):
        nonlocal repairs
        cands = []
        for p in np.flatnonzero(rem == 0):
            w = ids[int(p)]
            if w == u or w in adjacency[u] or not adjacency[w]:
                continue
            if community_of is not None and community_of[w] == community_of[u]:
                continue
            cands.append(w)
        if not cands:
            raise WiringError(f"node {u}: no candidate links to rewire")
        w = cands[int(rng.integers(len(cands)))]
        neighbors = sorted(adjacency[w])
        v = neighbors[int(rng.integers(len(neighbors)))]
        links.discard((w, v) if w < v else (v, w))
        adjacency[w].discard(v)
        adjacency[v].discard(w)
        rem[pos[w]] += 1
        rem[pos[v]] += 1
        add_link(u, w)
        heapq.heappush(heap, (-degree_of[v], v))
        repairs += 1
        if repairs > budget:
            raise WiringError(f"wiring repair budget ({budget}) exhausted")

    while heap:
        _, u = heapq.heappop(heap)
        while rem[pos[u]] > 0:
            v = draw(u)
            if v is None:
                repair(u)
            else:
                add_link(u, v)
    if int(rem.sum()) != 0:
        raise WiringError("stubs left unpaired after the wiring loop")
    return links, repairs


def reference_max_chunk_greedy(system) -> np.ndarray:
    """``transition.max_chunk_greedy`` as a scan of every open cell per commit.

    Each commit puts ``min(row residual, column residual)`` on the open cell
    where that amount is largest, ties to the lowest row-major index.
    """
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    k, l = system.k, system.l
    u = system.lower.copy()
    while rr.max() > 0:
        best = None
        for i in range(k):
            if rr[i] == 0:
                continue
            for j in range(l):
                if cr[j] == 0:
                    continue
                m = min(int(rr[i]), int(cr[j]))
                key = (-m, i * l + j)
                if best is None or key < best[0]:
                    best = (key, i, j, m)
        _, i, j, m = best
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
    return u


def reference_mi_greedy(system) -> np.ndarray:
    """``transition.mi_greedy`` as a rescan of every open cell per commit.

    Each step commits ``min(row residual, column residual)`` at the open cell
    whose final contribution to the VI sum is smallest, until all residuals
    are zero.  Ties break on the lowest row-major cell index.
    """
    rr = system.row_slack.astype(np.int64).copy()
    cr = system.col_slack.astype(np.int64).copy()
    k, l = system.k, system.l
    n = float(system.node_count)
    rows_full = [float(s) for s in system.sizes_from]
    cols_full = [float(s) for s in system.sizes_to]
    lower = system.lower
    u = lower.copy()
    open_rows = [i for i in range(k) if rr[i] > 0]
    open_cols = [j for j in range(l) if cr[j] > 0]
    while open_rows and open_cols:
        best = None
        for i in open_rows:
            for j in open_cols:
                m = min(int(rr[i]), int(cr[j]))
                low = int(lower[i, j])
                delta = _cell_contrib(low + m, rows_full[i], cols_full[j], n) - _cell_contrib(
                    low, rows_full[i], cols_full[j], n
                )
                key = (delta, i * l + j)
                if best is None or key < best[0]:
                    best = (key, i, j, m)
        _, i, j, m = best
        u[i, j] += m
        rr[i] -= m
        cr[j] -= m
        if rr[i] == 0:
            open_rows.remove(i)
        if cr[j] == 0:
            open_cols.remove(j)
    return u


def reference_proportional_fill(system) -> np.ndarray:
    """``transition.proportional_fill`` with the cell order from a Python ``sorted``.

    Rounded independence product ``s_i * s'_j / n`` with integer repair.
    """
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
    # distribute the deficits cell by cell, largest fractional part first
    order = sorted(
        ((i, j) for i in range(system.k) for j in range(system.l)),
        key=lambda ij: (-frac[ij[0], ij[1]], ij[0] * system.l + ij[1]),
    )
    for i, j in order:
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


_MIX = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _MIX) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _cell_hash(cell: int, value: int) -> int:
    return _splitmix64(cell * 0x100000001B3 + value + 1)


def _matrix_hash(u: np.ndarray) -> int:
    h = 0
    flat = u.ravel()
    for idx in range(flat.size):
        h ^= _cell_hash(idx, int(flat[idx]))
    return h


def _cell_contrib(value: float, row_total: float, col_total: float, n: float) -> float:
    if value <= 0:
        return 0.0
    return -(value / n) * (math.log(value / row_total) + math.log(value / col_total))


def _apply(u: np.ndarray, cells, deltas) -> np.ndarray:
    out = u.copy()
    for (ci, cj), dd in zip(cells, deltas):
        out[ci, cj] += dd
    return out


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    fa, fb = a.ravel(), b.ravel()
    for x, y in zip(fa, fb):
        if x != y:
            return bool(x < y)
    return False


def reference_taboo_search(system, seed, basis, local_tries_threshold, global_tries_threshold):
    """The anytime taboo hull search with a Zobrist-hashed visited set.

    From the current point the search jumps, for every kernel-basis vector and
    both signs, to the boundary of feasibility, evaluates unvisited endpoints,
    marks the best one visited and moves there only when it improves the best
    VI so far.  Counters reset on improvement; the search stops on the two
    thresholds or when the whole neighbourhood has been visited.  Returns
    (flow, moves).
    """
    u = np.asarray(seed, dtype=np.int64).copy()
    k, l = system.k, system.l
    n = float(system.node_count)
    rows_full = [float(s) for s in system.sizes_from]
    cols_full = [float(s) for s in system.sizes_to]
    lower = system.lower

    def contrib(val, i, j):
        return _cell_contrib(float(val), rows_full[i], cols_full[j], n)

    cur_vi = variation_of_information(u)
    best_vi = cur_vi
    cur_hash = _matrix_hash(u)
    visited: set[int] = set()
    moves = 0
    global_tries = 0
    while global_tries <= global_tries_threshold:
        global_tries += 1
        local_tries = 0
        dead_end = False
        while local_tries <= local_tries_threshold:
            local_tries += 1
            best_cand = None  # (vi, hash, cells) with lexicographic tie break
            best_cells = None
            for v in basis:
                cells = (
                    (v.i, v.j),
                    (v.i, v.ref_col),
                    (v.ref_row, v.j),
                    (v.ref_row, v.ref_col),
                )
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
                    h = cur_hash
                    dvi = 0.0
                    for (ci, cj), dd in zip(cells, deltas):
                        old = int(u[ci, cj])
                        new = old + dd
                        h ^= _cell_hash(ci * l + cj, old) ^ _cell_hash(ci * l + cj, new)
                        dvi += contrib(new, ci, cj) - contrib(old, ci, cj)
                    if h in visited:
                        continue
                    cand_vi = cur_vi + dvi
                    if best_cand is None or cand_vi < best_cand[0] - 1e-12:
                        best_cand = (cand_vi, h, cells, deltas)
                        best_cells = None
                    elif abs(cand_vi - best_cand[0]) <= 1e-12:
                        # tie: lowest flattened lexicographic endpoint wins
                        if best_cells is None:
                            best_cells = _apply(u, best_cand[2], best_cand[3])
                        cand_mat = _apply(u, cells, deltas)
                        if _lex_less(cand_mat, best_cells):
                            best_cand = (cand_vi, h, cells, deltas)
                            best_cells = cand_mat
            if best_cand is None:
                dead_end = True
                break
            cand_vi, h, cells, deltas = best_cand
            visited.add(h)
            if cand_vi >= best_vi - 1e-12:
                local_tries += 1  # non-improving probes count double, per the stopping rule
            else:
                for (ci, cj), dd in zip(cells, deltas):
                    u[ci, cj] += dd
                cur_hash = h
                cur_vi = variation_of_information(u)
                best_vi = cur_vi
                local_tries = 0
                global_tries = 0
                moves += 1
        if dead_end:
            break
    return u, moves


# lifecycle events with every rule written out for each side, and the event
# table with one text branch per event


def _continuation_kind(size_before: int, size_after: int, band: float) -> str:
    if size_after > size_before * (1.0 + band):
        return CONTINUES_GROWING
    if size_after < size_before * (1.0 - band):
        return CONTINUES_SHRINKING
    return CONTINUES


def reference_classify_events(
    flow,
    thresholds: LifecycleThresholds | None = None,
    death_col: int | None = None,
    birth_row: int | None = None,
) -> list[EventRecord]:
    """Classify lifecycle events from a node-resolved contingency matrix.

    ``flow`` is the full contingency including the optional death column and
    birth row at the given indices; the other rows and columns are the real
    communities, whose sizes are the flow's marginals.  Adjustment flows
    decide only the born/dead labels and are excluded from the other events.

    Rules, per real source community i (side ``end_of_t``):

    * dead when at least ``1 - share`` of its nodes flow to the death column;
    * continues (growing/shrinking by the size dead band) in the
      highest-Jaccard target when that Jaccard reaches ``continuation``;
    * split into the real targets that each receive at least ``share`` of the
      source, when there are two or more of them;
    * merged into every target that receives qualifying shares (>= ``share``
      of the respective source) from two or more sources;
    * a community with no event gets a best-effort continuation record toward
      its highest-Jaccard target so that every community is accounted for.

    The start-of-t+1 side mirrors the rules, with ``born`` when at least
    ``1 - share`` of a target's nodes come from the birth row.
    """
    th = thresholds or LifecycleThresholds()
    u = np.asarray(flow, dtype=np.int64)
    real_rows = [i for i in range(u.shape[0]) if i != birth_row]
    real_cols = [j for j in range(u.shape[1]) if j != death_col]
    k_real, l_real = len(real_rows), len(real_cols)
    sizes_t = u[real_rows].sum(axis=1).tolist()
    sizes_t1 = u[:, real_cols].sum(axis=0).tolist()
    jac = flow_jaccard(u, birth_row, death_col)

    share = np.zeros((k_real, l_real))
    for a, i in enumerate(real_rows):
        if sizes_t[a] > 0:
            share[a] = u[i, real_cols] / sizes_t[a]
    qualifying = share >= th.share
    merge_targets = [b for b in range(l_real) if int(qualifying[:, b].sum()) >= 2]

    records: list[EventRecord] = []
    for a, i in enumerate(real_rows):
        events_for_a: list[EventRecord] = []
        died = int(u[i, death_col]) if death_col is not None else 0
        if sizes_t[a] > 0 and died >= (1.0 - th.share) * sizes_t[a]:
            events_for_a.append(EventRecord(END_OF_T, a, DEAD))
        if l_real:
            best = int(np.argmax(jac[a]))
            if jac[a, best] >= th.continuation:
                kind = _continuation_kind(sizes_t[a], sizes_t1[best], th.size_dead_band)
                events_for_a.append(EventRecord(END_OF_T, a, kind, (best,)))
        targets = tuple(b for b in range(l_real) if qualifying[a, b])
        if len(targets) >= 2:
            events_for_a.append(EventRecord(END_OF_T, a, SPLIT_INTO, targets))
        for b in merge_targets:
            if qualifying[a, b]:
                events_for_a.append(EventRecord(END_OF_T, a, MERGED_INTO, (b,)))
        if not events_for_a and l_real:
            best = int(np.argmax(jac[a]))
            kind = _continuation_kind(sizes_t[a], sizes_t1[best], th.size_dead_band)
            events_for_a.append(EventRecord(END_OF_T, a, kind, (best,)))
        records.extend(events_for_a)

    for b, j in enumerate(real_cols):
        events_for_b: list[EventRecord] = []
        born = int(u[birth_row, j]) if birth_row is not None else 0
        if sizes_t1[b] > 0 and born >= (1.0 - th.share) * sizes_t1[b]:
            events_for_b.append(EventRecord(START_OF_T1, b, BORN))
        if k_real:
            best = int(np.argmax(jac[:, b]))
            if jac[best, b] >= th.continuation:
                kind = _continuation_kind(sizes_t[best], sizes_t1[b], th.size_dead_band)
                events_for_b.append(EventRecord(START_OF_T1, b, kind, (best,)))
        sources = tuple(a for a in range(k_real) if qualifying[a, b] and len(
            tuple(x for x in range(l_real) if qualifying[a, x])
        ) >= 2)
        for a in sources:
            events_for_b.append(EventRecord(START_OF_T1, b, SPLIT_FROM, (a,)))
        if b in merge_targets:
            srcs = tuple(a for a in range(k_real) if qualifying[a, b])
            events_for_b.append(EventRecord(START_OF_T1, b, MERGED_FROM, srcs))
        if not events_for_b and k_real:
            best = int(np.argmax(jac[:, b]))
            kind = _continuation_kind(sizes_t[best], sizes_t1[b], th.size_dead_band)
            events_for_b.append(EventRecord(START_OF_T1, b, kind, (best,)))
        records.extend(events_for_b)
    return records


def reference_render_event_table(
    records,
    t: int,
    labels_t=None,
    labels_t1=None,
) -> str:
    """Two-section text table of the boundary events, one line per record."""

    def name(side: str, idx: int) -> str:
        labels = labels_t if side == END_OF_T else labels_t1
        return str(labels[idx]) if labels is not None else str(idx)

    def other(side: str) -> str:
        return START_OF_T1 if side == END_OF_T else END_OF_T

    def describe(rec: EventRecord) -> str:
        cps = ", ".join(name(other(rec.side), c) for c in rec.counterparts)
        if rec.event in (CONTINUES, CONTINUES_GROWING, CONTINUES_SHRINKING):
            word = {
                CONTINUES: "Continues",
                CONTINUES_GROWING: "Continues growing",
                CONTINUES_SHRINKING: "Continues shrinking",
            }[rec.event]
            if rec.side == START_OF_T1:
                word = word.replace("Continues", "Continued")
                return f"{word} from {cps}"
            return f"{word} in {cps}"
        if rec.event == SPLIT_INTO:
            return f"Split into [{cps}]"
        if rec.event == SPLIT_FROM:
            return f"From split {cps}"
        if rec.event == MERGED_INTO:
            return f"Merged into {cps}"
        if rec.event == MERGED_FROM:
            return f"Merged from [{cps}]"
        if rec.event == BORN:
            return "Born"
        return "Dead"

    lines = [f"Community | Event @ end of time T{t}", "-" * 40]
    for rec in records:
        if rec.side == END_OF_T:
            lines.append(f"{name(END_OF_T, rec.community):>9} | {describe(rec)}")
    lines.append("")
    lines.append(f"Community | Event @ beginning of time T{t + 1}")
    lines.append("-" * 40)
    for rec in records:
        if rec.side == START_OF_T1:
            lines.append(f"{name(START_OF_T1, rec.community):>9} | {describe(rec)}")
    return "\n".join(lines)


# node assignment parity repair with the unequal-degree fallback as a second loop


def reference_repair_intra_parity(assignment, sizes):
    out = dict(assignment)
    parity = defaultdict(int)
    for c, d, e in out.values():
        parity[c] ^= e & 1
    odd = sorted(c for c in range(len(sizes)) if parity[c])
    if not odd:
        return out
    if len(odd) % 2 == 1:
        raise GraphabilityError("odd number of odd-parity communities; global parity broken")

    by_comm: dict[int, list[int]] = defaultdict(list)
    for nid, (c, _, _) in out.items():
        by_comm[c].append(nid)

    def find_swap(c1: int, c2: int):
        s1, s2 = sizes.sizes[c1], sizes.sizes[c2]
        by_degree: dict[int, list[int]] = defaultdict(list)
        for nid in by_comm[c1]:
            by_degree[out[nid][1]].append(nid)
        fallback = None
        for nid2 in sorted(by_comm[c2]):
            _, d2, e2 = out[nid2]
            for nid1 in by_degree.get(d2, ()):
                e1 = out[nid1][2]
                if (e1 ^ e2) & 1 and e1 <= s2 - 1 and e2 <= s1 - 1:
                    return nid1, nid2
        for nid2 in sorted(by_comm[c2]):
            _, _, e2 = out[nid2]
            for nid1 in sorted(by_comm[c1]):
                e1 = out[nid1][2]
                if (e1 ^ e2) & 1 and e1 <= s2 - 1 and e2 <= s1 - 1:
                    fallback = (nid1, nid2)
                    break
            if fallback:
                break
        return fallback

    while odd:
        c1 = odd.pop(0)
        for pos, c2 in enumerate(odd):
            pair = find_swap(c1, c2)
            if pair:
                nid1, nid2 = pair
                _, d1, e1 = out[nid1]
                _, d2, e2 = out[nid2]
                out[nid1] = (c1, d2, e2)
                out[nid2] = (c2, d1, e1)
                by_comm[c1].remove(nid1)
                by_comm[c1].append(nid2)
                by_comm[c2].remove(nid2)
                by_comm[c2].append(nid1)
                odd.pop(pos)
                break
        else:
            raise GraphabilityError(
                f"community {c1}: no parity-fixing tuple swap with any other odd community"
            )
    return out


# snapshot validation with realized degrees and intra degrees counted in
# passes of their own


def _reference_degrees(snapshot) -> dict[int, int]:
    d = dict.fromkeys(snapshot.nodes, 0)
    for u, v in snapshot.links:
        d[u] += 1
        d[v] += 1
    return d


def _reference_intra_degrees(snapshot) -> dict[int, int]:
    comm = {nid: node.community for nid, node in snapshot.nodes.items()}
    d = dict.fromkeys(snapshot.nodes, 0)
    for u, v in snapshot.links:
        if comm[u] == comm[v]:
            d[u] += 1
            d[v] += 1
    return d


def reference_validate(snapshot) -> None:
    seen = set()
    for u, v in snapshot.links:
        if u == v:
            raise AssertionError(f"self-loop at node {u}")
        if u not in snapshot.nodes or v not in snapshot.nodes:
            raise AssertionError(f"link ({u}, {v}) references unknown nodes")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise AssertionError(f"duplicate link {key}")
        seen.add(key)
    covered = set()
    for c, group in enumerate(snapshot.clustering):
        if covered & group:
            raise AssertionError(f"community {c} overlaps another community")
        covered |= group
    if covered != set(snapshot.nodes):
        raise AssertionError("clustering does not cover the node set")
    for nid, node in snapshot.nodes.items():
        if nid not in snapshot.clustering[node.community]:
            raise AssertionError(f"node {nid} missing from its community")
    realized = _reference_degrees(snapshot)
    realized_intra = _reference_intra_degrees(snapshot)
    for nid, node in snapshot.nodes.items():
        if realized[nid] != node.degree:
            raise AssertionError(
                f"node {nid}: realized degree {realized[nid]} != spec {node.degree}"
            )
        if realized_intra[nid] != node.intra_degree:
            raise AssertionError(
                f"node {nid}: realized intra degree {realized_intra[nid]}"
                f" != spec {node.intra_degree}"
            )


# the temporal CSV export with one run merger for lifetimes and one for labels


def _reference_merge_runs(timesteps) -> list[tuple[int, int]]:
    runs = []
    for t in sorted(timesteps):
        if runs and runs[-1][1] == t:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1])
    return [(a, b) for a, b in runs]


def _reference_interval_text(runs) -> str:
    return "<" + "; ".join(f"[{a},{b})" for a, b in runs) + ">"


def _reference_community_text(segments) -> str:
    return "<" + "; ".join(f"[{a},{b},{label})" for a, b, label in segments) + ">"


def reference_export_temporal_csv(snapshots, outdir) -> tuple[str, str]:
    if not snapshots:
        raise ConfigurationError("nothing to export: no snapshots")
    os.makedirs(outdir, exist_ok=True)
    node_presence: dict[int, list[int]] = {}
    node_community: dict[int, dict[int, int]] = {}
    edge_presence: dict[tuple[int, int], list[int]] = {}
    for snap in snapshots:
        for nid, node in snap.nodes.items():
            node_presence.setdefault(nid, []).append(snap.t)
            label = snap.community_labels[node.community]
            node_community.setdefault(nid, {})[snap.t] = label
        for edge in snap.links:
            edge_presence.setdefault(edge, []).append(snap.t)

    nodes_path = os.path.join(outdir, "nodes.csv")
    with open(nodes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Id", "Label", "Communities", "Interval"])
        for nid in sorted(node_presence):
            times = sorted(node_presence[nid])
            segments = []
            for t in times:
                label = node_community[nid][t]
                if segments and segments[-1][1] == t and segments[-1][2] == label:
                    segments[-1][1] = t + 1
                else:
                    segments.append([t, t + 1, label])
            writer.writerow(
                [
                    nid,
                    f"n{nid}",
                    _reference_community_text([tuple(s) for s in segments]),
                    _reference_interval_text(_reference_merge_runs(times)),
                ]
            )

    edges_path = os.path.join(outdir, "edges.csv")
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Source", "Target", "Type", "Interval"])
        for u, v in sorted(edge_presence):
            writer.writerow(
                [
                    u,
                    v,
                    "Undirected",
                    _reference_interval_text(_reference_merge_runs(edge_presence[(u, v)])),
                ]
            )
    return nodes_path, edges_path
