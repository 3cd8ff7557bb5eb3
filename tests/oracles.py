"""Independent verification oracles used across the test suite.

Everything here is deliberately written along a different path than the
library: realizability by exhaustive backtracking over adjacency structures,
VI through entropies, modularity straight from the definition, connectivity
through the Laplacian spectrum, tiny flow counts by filtering the full cell
product, and stub pairing through a full cumulative sum per draw.  The flow
search and four seed heuristics have their earlier forms here: the taboo
search with its hashed visited set and try thresholds, the steepest descent
scoring one jump at a time with ``math.log`` per cell, max-chunk and
min-VI greedy scanning every open cell per commit, the sorted-residual
greedy on numpy residuals, and the proportional fill ordering its cells with
a Python ``sorted``.  The VI of a flow keeps its boolean masks and broadcast
row and column sums, and the materialization of a flow reads it one numpy
cell at a time.  The lifecycle classifier and
its event table keep their earlier forms as well, with every rule written out
once per side, and so does the label matching, with its Python sort of every
Jaccard pair.  So do the parity repair with its separate fallback loop,
snapshot validation with its separate degree passes, and the CSV export with
one run merger per field.  Intra wiring runs one reference phase per
community, one ``rng.beta`` call per draw.  Assortativity, modularity and the connectivity
check keep their per-link Python loops.  Node assignment keeps its numpy
scan over every tuple per node and its draw of one variate per node, and
recounts Hall's count from scratch for each temporal pick; the first-fit
temporal placement, which raised mid-pass, stays as an oracle of the picks
that rule leaves alone.  The Erdos-Gallai test keeps its loop over k, and
the capacity gate its heap placement.  The full gate of an assigned snapshot keeps its pass per
community, one intra sequence at a time.  The partition contingency, the VI
of two partitions and the best-of-pool pick live only here, since only tests
use them, as do the building of a snapshot from a ``Node`` dict and each
community's id set of a snapshot.
The exact lattice enumerator (every feasible flow of a transportation
system, one free cell at a time) and the system's incidence matrix are the
enumeration oracle; the library keeps only the count.  ``reference_layers``
installs the placement, gate, stub-pairing, move-planning, label-matching,
CSV-export and flow-transition references in the library, so a whole run
can be compared with one through the library's own kernels.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import itertools
import math
import os
from collections import defaultdict

import numpy as np

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    GraphabilityError,
    LatticeOverflowError,
    ShapeParams,
    Snapshot,
    WiringError,
    seed_pool,
    variation_of_information,
)
from temponet import assembler, pipeline
from temponet.assembler import REPAIR_BUDGET_FACTOR
from temponet.graphability import (
    FailedCondition,
    GraphabilityReport,
    erdos_gallai,
    inter_graphable,
)
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
from temponet.transition import northwest_sorted


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


def snapshot_from_nodes(t, nodes, endpoints, community_count, **kwargs) -> Snapshot:
    """A ``Snapshot`` from an id -> ``Node`` dict in any order, its columns sorted by id."""
    rows = sorted((nid, n.degree, n.intra_degree, n.community) for nid, n in nodes.items())
    ids, degree, intra_degree, community = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Snapshot(
        t=t,
        ids=ids,
        degree=degree,
        intra_degree=intra_degree,
        community=community,
        community_count=community_count,
        endpoints=endpoints,
        **kwargs,
    )


def clustering(snapshot) -> list[set[int]]:
    """Each community's set of ids in a snapshot, by community index."""
    return [
        set(snapshot.ids[snapshot.community == c].tolist())
        for c in range(snapshot.community_count)
    ]


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
    """VI between two partitions of the same node set, through their contingency."""
    return variation_of_information(contingency(partition_x, partition_y))


def best_of_pool(system) -> np.ndarray:
    """Pool member with the lowest VI (ties: earliest heuristic), as the pipeline picks it."""
    pool = seed_pool(system)
    scores = [variation_of_information(u) for u in pool]
    return pool[int(np.argmin(scores))]


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
    nodes = snapshot.nodes
    ids = sorted(nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in snapshot.endpoints.tolist():
        a[index[u], index[v]] = 1
        a[index[v], index[u]] = 1
    deg = a.sum(axis=1)
    two_m = deg.sum()
    comm = np.array([nodes[nid].community for nid in ids])
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


def flow_equations(system, reduced: bool = True):
    """Incidence matrix ``A`` and right-hand side ``B`` of the flow system.

    Rows are the k row-sum equations followed by the l column-sum
    equations; columns index the flows row-major.  ``rank(A) = k + l - 1``
    so with ``reduced`` the redundant last equation is dropped.
    """
    k, l = system.k, system.l
    a = np.zeros((k + l, k * l), dtype=np.int64)
    for i in range(k):
        a[i, i * l : (i + 1) * l] = 1
    for j in range(l):
        a[k + j, j::l] = 1
    b = np.array(system.sizes_from + system.sizes_to, dtype=np.int64)
    if reduced:
        return a[:-1], b[:-1]
    return a, b


def iter_lattice(system):
    """Yield every feasible flow matrix exactly once (numpy int64 arrays)."""
    rows, cols = system.row_slack.tolist(), system.col_slack.tolist()
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


def enumerate_lattice(system, cap: int) -> list[np.ndarray]:
    """All feasible flows as a list; overflow signal when more than ``cap`` exist."""
    out = []
    for u in iter_lattice(system):
        if len(out) >= cap:
            raise LatticeOverflowError(cap, len(out) + 1)
        out.append(u)
    return out


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

    One phase of (id, total d, stubs) ``entries``, with the draw order and
    RNG use of the library's phases: ``temponet.assembler.wire_intra`` runs
    one per community, and ``wire_inter`` (``community_of`` given) one over
    all nodes.  Positions are the open stubs sorted by (total degree, id),
    the node being filled, its neighbours and (``community_of`` given) its
    own community get weight 0, and the partner is the first position whose
    cumulative weight exceeds ``min(int(beta * total), total - 1)``.  Raises
    ``WiringError`` after more than ``budget`` repairs.  Returns (links,
    repairs).
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
            raise WiringError(
                f"node {u}: no candidate links to rewire ({rem[pos[u]]} stubs left)"
            )
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


def node_columns(nodes) -> tuple[np.ndarray, ...]:
    """(id, total d, stubs, community) tuples as the four int64 columns
    (ids, degrees, stubs, communities) that ``wire_intra`` and
    ``wire_inter`` take."""
    return tuple(np.array(list(nodes), dtype=np.int64).reshape(-1, 4).T)


def placement_columns(assignment) -> tuple[np.ndarray, ...]:
    """An id -> (community, d, e) dict of the placement references as the int64
    columns ``(ids, community, degree, intra)`` that ``assign_nodes`` and
    ``repair_intra_parity`` return, in the dict's order."""
    rows = [(nid, *value) for nid, value in assignment.items()]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def placement_dict(ids, community, *degrees) -> dict:
    """Node columns as the id-keyed dict of the placement references, in column
    order: ``(ids, community)`` as ``{id: c}``, ``(ids, community, degree,
    intra)`` as ``{id: (c, d, e)}``."""
    columns = [np.asarray(column).tolist() for column in (community, *degrees)]
    return dict(zip(np.asarray(ids).tolist(), zip(*columns) if degrees else columns[0]))


def column_api(assign):
    """The dict-API placement reference ``assign`` behind ``assign_nodes``' column API.

    The temporal columns reach ``assign`` as ``surviving`` ({id: c}) and
    ``prev_degrees`` ({id: d} over the ids whose previous degree is not 0),
    and its {id: (c, d, e)} result comes back as ``placement_columns``.
    """

    def placed(sizes, spec, rng, ids=None, community=None, temporal_shape=None, prev_degree=None):
        surviving = prev_degrees = None
        if ids is not None:
            surviving = placement_dict(ids, community)
            if prev_degree is not None:
                prev_degrees = {nid: d for nid, d in placement_dict(ids, prev_degree).items() if d}
        return placement_columns(assign(sizes, spec, rng, surviving, temporal_shape, prev_degrees))

    return placed


def reference_wire_intra(nodes, shape, rng, budget_factor=REPAIR_BUDGET_FACTOR):
    """Every community's intra phase through ``reference_wire_phase``, in index order.

    ``nodes`` is (id, total d, intra e, community) tuples, the rows of the
    columns that ``temponet.assembler.wire_intra`` takes.  Each community is one
    phase on ``rng`` with a repair bound of ``budget_factor`` per member.
    Returns each community's link set and repairs, by community index; a
    ``WiringError`` comes from the first community that raises it.
    """
    members: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for nid, d, e, c in nodes:
        members[c].append((nid, d, e))
    return {
        c: reference_wire_phase(members[c], shape, rng, budget_factor * len(members[c]))
        for c in sorted(members)
    }


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


def reference_sorted_residual_greedy(system) -> np.ndarray:
    """``transition.sorted_residual_greedy`` on numpy residuals.

    Repeatedly match the largest remaining source with the largest target.
    """
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


def reference_variation_of_information(flow) -> float:
    """``transition.variation_of_information`` through boolean masks and
    broadcast row and column sums.

    Natural logarithm; ``0 * log(.)`` terms are dropped.  The value is the
    standard node-weighted form ``-sum r_ij [log(r_ij/p_i) + log(r_ij/q_j)]``
    with ``r_ij = u_ij / n``.
    """
    u = np.asarray(flow, dtype=np.float64)
    if u.size == 0:
        return 0.0
    if u.min() < 0:
        raise ConfigurationError("flow entries must be non-negative")
    if u.sum() <= 0:
        return 0.0
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


def reference_materialize_flow(flow, groups, rng) -> list[list[list[int]]]:
    """``transition.materialize_flow`` reading the flow one numpy cell at a time.

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


_MIX =0x9E3779B97F4A7C15


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
    r, c = k - 1, l - 1  # the corner every move passes through
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
            for i, j in basis.tolist():
                cells = ((i, j), (i, c), (r, j), (r, c))
                for sign in (1, -1):
                    if sign == 1:
                        step = min(int(u[i, c] - lower[i, c]), int(u[r, j] - lower[r, j]))
                    else:
                        step = min(int(u[i, j] - lower[i, j]), int(u[r, c] - lower[r, c]))
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


def reference_descent(system, seed, basis, trace=None):
    """``transition.taboo_search`` scoring one jump at a time.

    For every kernel-basis move and both signs, the jump to the boundary of
    feasibility is scored cell by cell with ``math.log``; the search moves to
    the jump with the lowest VI (within 1e-12, the lexicographically
    smallest flow) while it beats the current VI by more than 1e-12.
    ``trace`` receives ``(moves, VI)`` at the start and after each move.
    """
    u = np.asarray(seed, dtype=np.int64).copy()
    if not system.is_feasible(u):
        raise ConfigurationError("taboo_search seed is not a feasible flow")
    k, l, n = system.k, system.l, float(system.node_count)
    r, c = k - 1, l - 1  # the corner every move passes through
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
        best = None  # (vi, cells, deltas)
        best_flat = None
        for i, j in basis.tolist():
            cells = ((i, j), (i, c), (r, j), (r, c))
            for sign in (1, -1):
                if sign == 1:
                    step = min(int(u[i, c] - lower[i, c]), int(u[r, j] - lower[r, j]))
                else:
                    step = min(int(u[i, j] - lower[i, j]), int(u[r, c] - lower[r, c]))
                if step < 1:
                    continue
                deltas = (sign * step, -sign * step, -sign * step, sign * step)
                dvi = 0.0
                for (ci, cj), dd in zip(cells, deltas):
                    old = int(u[ci, cj])
                    dvi += contrib(old + dd, ci, cj) - contrib(old, ci, cj)
                cand_vi = cur_vi + dvi
                if best is None or cand_vi < best[0] - 1e-12:
                    best = (cand_vi, cells, deltas)
                    best_flat = None
                elif abs(cand_vi - best[0]) <= 1e-12:
                    # tie: lowest flattened lexicographic endpoint wins
                    if best_flat is None:
                        best_flat = _apply(u, best[1], best[2]).ravel().tolist()
                    cand_flat = _apply(u, cells, deltas).ravel().tolist()
                    if cand_flat < best_flat:
                        best = (cand_vi, cells, deltas)
                        best_flat = cand_flat
        if best is None or best[0] >= cur_vi - 1e-12:
            return u
        u = _apply(u, best[1], best[2])
        cur_vi = variation_of_information(u)
        moves += 1
        if not system.is_feasible(u):
            raise AssertionError("taboo move left the solution space")
        if trace is not None:
            trace.append((moves, cur_vi))


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


def reference_inherit_labels(jac, labels_t, threshold, counter):
    """``temponet.lifecycle.inherit_labels`` through a Python sort of every
    (value, i, j) triple, read one numpy cell at a time."""
    k, l = jac.shape
    pairs = sorted(
        ((jac[i, j], i, j) for i in range(k) for j in range(l)),
        key=lambda p: (-p[0], p[1], p[2]),
    )
    labels1 = [None] * l
    used = set()
    for value, i, j in pairs:
        if value < threshold:
            break
        if i in used or labels1[j] is not None:
            continue
        labels1[j] = labels_t[i]
        used.add(i)
    for j in range(l):
        if labels1[j] is None:
            labels1[j] = counter
            counter += 1
    return labels1, counter


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
    for u, v in snapshot.endpoints.tolist():
        d[u] += 1
        d[v] += 1
    return d


def _reference_intra_degrees(snapshot) -> dict[int, int]:
    comm = {nid: node.community for nid, node in snapshot.nodes.items()}
    d = dict.fromkeys(snapshot.nodes, 0)
    for u, v in snapshot.endpoints.tolist():
        if comm[u] == comm[v]:
            d[u] += 1
            d[v] += 1
    return d


def reference_validate(snapshot) -> None:
    seen = set()
    for u, v in snapshot.endpoints.tolist():
        if u == v:
            raise AssertionError(f"self-loop at node {u}")
        if u not in snapshot.nodes or v not in snapshot.nodes:
            raise AssertionError(f"link ({u}, {v}) references unknown nodes")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise AssertionError(f"duplicate link {key}")
        seen.add(key)
    k = snapshot.community_count
    for nid, node in snapshot.nodes.items():
        if not 0 <= node.community < k:
            raise AssertionError(
                f"node {nid}: community index {node.community} outside the {k} communities"
            )
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


# snapshot metrics and the connectivity check as per-link Python loops


def reference_assortativity_details(snapshot) -> tuple[float, bool]:
    """Newman degree assortativity and a flag for the degenerate (zero variance) case."""
    links = snapshot.endpoints.tolist()
    if not links:
        raise ConfigurationError("assortativity needs at least one link")
    deg = {nid: node.degree for nid, node in snapshot.nodes.items()}
    x = np.empty(2 * len(links), dtype=np.float64)
    y = np.empty_like(x)
    for idx, (u, v) in enumerate(sorted(links)):
        x[2 * idx], y[2 * idx] = deg[u], deg[v]
        x[2 * idx + 1], y[2 * idx + 1] = deg[v], deg[u]
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    if var <= 1e-12:
        return 0.0, True
    cov = ((x - mean) * (y - mean)).mean()
    return float(cov / var), False


def reference_modularity(snapshot) -> float:
    """Newman-Girvan modularity of the ground-truth clustering (resolution 1)."""
    links = snapshot.endpoints.tolist()
    m = len(links)
    if m < 1:
        raise ConfigurationError("modularity needs at least one link")
    comm = {nid: node.community for nid, node in snapshot.nodes.items()}
    intra = [0] * snapshot.community_count
    deg_sum = [0] * snapshot.community_count
    for u, v in links:
        if comm[u] == comm[v]:
            intra[comm[u]] += 1
        deg_sum[comm[u]] += 1
        deg_sum[comm[v]] += 1
    q = 0.0
    for c in range(snapshot.community_count):
        q += intra[c] / m - (deg_sum[c] / (2.0 * m)) ** 2
    return q


def reference_check_connectivity(member_ids, links) -> int:
    """Number of connected components of a community subgraph (union-find)."""
    parent = {nid: nid for nid in member_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in links:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(x) for x in parent})


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


def reference_seed_pool(system) -> list[np.ndarray]:
    """``transition.seed_pool`` from the heuristics' references, in the pool's order.

    ``northwest_sorted`` has no reference: its library form is the plain loop.
    """
    return [
        reference_mi_greedy(system),
        reference_sorted_residual_greedy(system),
        reference_max_chunk_greedy(system),
        northwest_sorted(system),
        reference_proportional_fill(system),
    ]


def reference_plan_moves(cfg, rng, prev, sizes_t1, t):
    """``pipeline._plan_moves`` with the dead nodes per community, the
    survivor groups and the surviving map counted in plain loops; the map
    becomes the new timestep's ``ids`` and ``community`` columns.

    The kill plan (``plan_transition``, which draws the kills), the seed
    pool, the flow search and the materialization are called through
    ``pipeline``, so whatever is installed there runs.
    """
    snap = prev.snap
    alive = snap.ids.tolist()
    kills = pipeline._kills_for_boundary(cfg, t - 1)
    try:
        plan = pipeline.plan_transition(prev.sizes, sizes_t1, kills, rng, alive_ids=alive)
    except ConfigurationError as exc:
        raise ConfigurationError(f"boundary {t - 1}: {exc}") from exc

    k, l = len(prev.sizes), len(sizes_t1)
    dead = set(plan.kill_ids)
    # the dead nodes of each community pin the death column; the survivors
    # group by community, each group in ascending id order
    lower = np.zeros((len(plan.sizes_from_augmented), len(plan.sizes_to_augmented)), np.int64)
    groups = [[] for _ in range(k)]
    for nid, c in zip(alive, snap.community.tolist()):
        if nid in dead:
            lower[c, plan.death_col] += 1
        else:
            groups[c].append(nid)
    system = pipeline.build_flow_system(
        plan.sizes_from_augmented, plan.sizes_to_augmented, lower=lower
    )
    pool_flows = pipeline.seed_pool(system)
    pool_vi = [pipeline.variation_of_information(u) for u in pool_flows]
    flow = pool_flows[pool_vi.index(min(pool_vi))]
    if not cfg.no_search:
        flow = pipeline.taboo_search(system, flow, pipeline.kernel_basis(system))
    surviving = {}
    for chunks in pipeline.materialize_flow(flow[:k, :l], groups, rng):
        for j, chunk in enumerate(chunks):
            for nid in chunk:
                surviving[nid] = j
    if plan.birth_row is not None:
        nid = prev.next_id
        for j in range(l):
            for _ in range(int(flow[plan.birth_row, j])):
                surviving[nid] = j
                nid += 1
    ids, community = (np.array(list(x), dtype=np.int64) for x in (surviving, surviving.values()))
    return pipeline._Moves(plan, flow, pool_vi, ids, community)


@contextlib.contextmanager
def reference_layers():
    """Install the reference placement, gate, wiring loop, move planning,
    CSV export and flow transition in temponet.

    Inside the block, ``assemble_snapshot`` places nodes through
    ``reference_assign_nodes`` behind ``column_api``, gates each assignment through
    ``reference_check_graphable`` and wires through ``reference_wire_phase``
    with the library's repair bound: ``wire_intra`` becomes one reference
    phase per community in index order (``reference_wire_intra``), and
    ``wire_inter`` one phase over all nodes; both take the library's int64
    node columns (ids, degrees, stubs, communities).  Links come back as (m, 2)
    int64 rows (u, v), u < v, sorted within each phase.  ``run`` plans each
    boundary's moves through ``reference_plan_moves``, which builds the seed
    pool through ``reference_seed_pool``, scores flows through
    ``reference_variation_of_information``, searches through
    ``reference_descent``, materializes through ``reference_materialize_flow``,
    carries the labels through ``reference_inherit_labels`` and exports
    through ``reference_export_temporal_csv``.  The library's own functions
    are restored on exit.
    """

    def rows(links) -> np.ndarray:
        return np.array(sorted(links), dtype=np.int64).reshape(-1, 2)

    def wire_intra(ids, degree, stubs, community, shape, rng):
        nodes = zip(*(column.tolist() for column in (ids, degree, stubs, community)))
        wired = reference_wire_intra(nodes, shape, rng).values()
        if not wired:
            return rows(()), 0
        return (
            np.concatenate([rows(links) for links, _ in wired]),
            sum(repairs for _, repairs in wired),
        )

    def wire_inter(ids, degree, stubs, community, shape, rng):
        bound = REPAIR_BUDGET_FACTOR * max(1, len(ids))
        entries = list(zip(ids.tolist(), degree.tolist(), stubs.tolist()))
        community_of = dict(zip(ids.tolist(), community.tolist()))
        links, repairs = reference_wire_phase(entries, shape, rng, bound, community_of)
        return rows(links), repairs

    installed = {
        (assembler, "assign_nodes"): column_api(reference_assign_nodes),
        (assembler, "check_graphable"): reference_check_graphable,
        (assembler, "wire_intra"): wire_intra,
        (assembler, "wire_inter"): wire_inter,
        (pipeline, "_plan_moves"): reference_plan_moves,
        (pipeline, "inherit_labels"): reference_inherit_labels,
        (pipeline, "seed_pool"): reference_seed_pool,
        (pipeline, "variation_of_information"): reference_variation_of_information,
        (pipeline, "taboo_search"): reference_descent,
        (pipeline, "materialize_flow"): reference_materialize_flow,
        (pipeline, "export_temporal_csv"): reference_export_temporal_csv,
    }
    saved = {(owner, name): getattr(owner, name) for owner, name in installed}
    for (owner, name), function in installed.items():
        setattr(owner, name, function)
    try:
        yield
    finally:
        for (owner, name), function in saved.items():
            setattr(owner, name, function)


# node assignment with one numpy scan over the tuples per node, and Hall's
# count recounted from scratch for each temporal pick


def reference_assign_nodes(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    rng: np.random.Generator,
    surviving: dict[int, int] | None = None,
    temporal_shape: ShapeParams | None = None,
    prev_degrees: dict[int, int] | None = None,
) -> dict[int, tuple[int, int, int]]:
    """Assign communities and degree tuples to nodes; returns id -> (community, d, e).

    Bootstrap mode (``surviving`` is None): node id ``slot`` takes the slot's
    degree tuple and is placed into a random community drawn with probability
    proportional to remaining capacity, never where ``e`` reaches the
    community size: with one uniform u, the first eligible community whose
    integer capacity prefix sum exceeds ``int(u * total)``.

    Temporal mode: every id in ``surviving`` keeps its flow-dictated
    community; nodes with a previous degree draw their new tuple by sampling
    a Beta(``temporal_shape``) position in the remaining degree-ordered tuple
    list (restricted to tuples that fit the community), largest previous
    degrees drawing first.  Ids without history (newborns) draw uniformly.
    A pick after which Hall's count fails for the nodes still to place is
    re-mapped: with z the largest threshold below the node's room at which
    as many alive tuples lie above z as unplaced nodes have a room above z,
    the same variate selects among the alive tuples with z < e <= room.

    Either mode first checks Hall's count for the whole placement and raises
    ``GraphabilityError`` before any draw when it fails; after that no pick
    can fail.
    """
    n = len(spec)
    if surviving is None:
        if not reference_assignment_feasible(sizes.sizes, spec.intra):
            raise GraphabilityError("node assignment ran out of community capacity")
        order = sorted(range(n), key=lambda i: (-spec.intra[i], -spec.total[i], i))
        caps = np.array(sizes.sizes, dtype=np.int64)
        room = np.array(sizes.sizes) - 1
        out: dict[int, tuple[int, int, int]] = {}
        for slot in order:
            e = spec.intra[slot]
            eligible = np.flatnonzero((caps > 0) & (room >= e))
            assert eligible.size, "Hall's count holds, so some community has room"
            cum = np.cumsum(caps[eligible])
            rank = int(rng.random() * int(cum[-1]))
            c = int(eligible[np.searchsorted(cum, rank, side="right")])
            caps[c] -= 1
            out[slot] = (c, spec.total[slot], spec.intra[slot])
        return out

    if len(surviving) != n:
        raise ConfigurationError(
            f"{len(surviving)} surviving memberships for {n} degree slots"
        )
    shape = temporal_shape or ShapeParams()
    prev_degrees = prev_degrees or {}
    survivors = sorted(
        (nid for nid in surviving if nid in prev_degrees),
        key=lambda nid: (-prev_degrees[nid], nid),
    )
    newborns = sorted(nid for nid in surviving if nid not in prev_degrees)
    order = survivors + newborns
    tuples = sorted(zip(spec.total, spec.intra), key=lambda de: (de[0], de[1]))
    d_arr = np.array([d for d, _ in tuples], dtype=np.int64)
    e_arr = np.array([e for _, e in tuples], dtype=np.int64)
    rooms = np.array([sizes.sizes[surviving[nid]] - 1 for nid in order], dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    thresholds = np.arange(int(e_arr.max()) + 1)

    def slack(j: int) -> np.ndarray:
        """For each threshold x, the unplaced nodes (the j-th on) with a room
        above x, minus the alive tuples with e above x."""
        nodes = (rooms[j:, None] > thresholds).sum(axis=0)
        return nodes - (e_arr[alive, None] > thresholds).sum(axis=0)

    def hall(j: int) -> bool:
        """Hall's count for placing the nodes from the j-th on onto the alive tuples."""
        return bool((slack(j) >= 0).all())

    if not hall(0):
        raise GraphabilityError(
            "degree tuples could not be matched to the flow-dictated communities"
        )
    out = {}
    for j, nid in enumerate(order):
        cap = int(rooms[j])
        eligible = np.flatnonzero(alive & (e_arr <= cap))
        if nid in prev_degrees:
            pos = float(rng.beta(shape.alpha, shape.beta))
            idx = min(int(pos * eligible.size), eligible.size - 1)
        else:
            drawn = int(rng.integers(eligible.size))
            idx = drawn
        pick = int(eligible[idx])
        alive[pick] = False
        safe = hall(j + 1)
        alive[pick] = True
        if not safe:
            z = int(np.flatnonzero(slack(j)[:cap] == 0).max())
            tight = np.flatnonzero(alive & (e_arr > z) & (e_arr <= cap))
            if nid in prev_degrees:
                idx = min(int(pos * tight.size), tight.size - 1)
            else:
                idx = drawn * tight.size // eligible.size
            pick = int(tight[idx])
        alive[pick] = False
        out[nid] = (surviving[nid], int(d_arr[pick]), int(e_arr[pick]))
    return out


# the temporal placement before the Hall-slack rule: the first fitting pick,
# raising mid-pass when a later node fits nowhere


def first_fit_assign_nodes(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    rng: np.random.Generator,
    surviving: dict[int, int],
    temporal_shape: ShapeParams | None = None,
    prev_degrees: dict[int, int] | None = None,
) -> dict[int, tuple[int, int, int]]:
    """Temporal placement that takes every pick as drawn; returns id -> (community, d, e).

    Each node draws as in ``reference_assign_nodes`` among the alive tuples
    that fit its community, with no look-ahead, so a pick may leave a later
    node no fitting tuple; that node raises ``GraphabilityError``.  Wherever
    this placement completes, Hall's count held after every pick, so the
    Hall-slack rule never re-maps and gives the same tuples.
    """
    n = len(spec)
    shape = temporal_shape or ShapeParams()
    prev_degrees = prev_degrees or {}
    survivors = sorted(
        (nid for nid in surviving if nid in prev_degrees),
        key=lambda nid: (-prev_degrees[nid], nid),
    )
    newborns = sorted(nid for nid in surviving if nid not in prev_degrees)
    tuples = sorted(zip(spec.total, spec.intra), key=lambda de: (de[0], de[1]))
    d_arr = np.array([d for d, _ in tuples], dtype=np.int64)
    e_arr = np.array([e for _, e in tuples], dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    out = {}
    for nid in survivors + newborns:
        cap = sizes.sizes[surviving[nid]] - 1
        eligible = np.flatnonzero(alive & (e_arr <= cap))
        if eligible.size == 0:
            raise GraphabilityError(
                "degree tuples could not be matched to the flow-dictated communities"
            )
        if nid in prev_degrees:
            pos = float(rng.beta(shape.alpha, shape.beta))
            idx = min(int(pos * eligible.size), eligible.size - 1)
        else:
            idx = int(rng.integers(eligible.size))
        pick = int(eligible[idx])
        alive[pick] = False
        out[nid] = (surviving[nid], int(d_arr[pick]), int(e_arr[pick]))
    return out


def rooms_admit_tuples(rooms, intra) -> bool:
    """True iff every intra degree can go to a node of its own whose room reaches it.

    Sorted pairing decides it: the j-th largest intra degree must fit the
    j-th largest room, for every j.
    """
    if len(rooms) != len(intra):
        raise ConfigurationError("as many rooms as intra degrees are needed")
    return all(e <= r for e, r in zip(sorted(intra, reverse=True), sorted(rooms, reverse=True)))


# the Erdos-Gallai test with one searchsorted per k


def reference_erdos_gallai(degrees) -> bool:
    """True iff the degree sequence is realizable as a simple graph.

    Checks the even-sum condition and, for every k,
    ``sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k)`` on the sequence
    sorted non-increasingly.
    """
    d = np.sort(np.asarray(list(degrees), dtype=np.int64))[::-1]
    n = int(d.size)
    if n == 0:
        return True
    if int(d[-1]) < 0:
        raise ConfigurationError("degrees must be non-negative")
    if int(d.sum()) % 2 == 1:
        return False
    if int(d[0]) >= n:
        return False
    asc = d[::-1]
    prefix_desc = np.cumsum(d)
    prefix_asc = np.concatenate(([0], np.cumsum(asc)))
    for k in range(1, n + 1):
        tail = n - k  # tail elements are asc[0:tail]
        if tail == 0:
            cnt_le = 0
        else:
            cnt_le = min(int(np.searchsorted(asc, k, side="right")), tail)
        small_sum = int(prefix_asc[cnt_le])
        large_cnt = tail - cnt_le
        rhs = k * (k - 1) + small_sum + k * large_cnt
        if int(prefix_desc[k - 1]) > rhs:
            return False
    return True


# the capacity gate as a heap placement: nodes in non-increasing intra degree,
# each into the eligible community with the largest remaining capacity


def reference_assignment_feasible(sizes, intra) -> bool:
    """True iff intra degrees can be placed into communities with ``e <= size - 1``.

    Greedy proof sketch: placing nodes in non-increasing intra order, any
    eligible community works because later nodes are never more constrained;
    the largest-remaining-capacity choice is used for determinism.
    """
    order = sorted((int(e) for e in intra), reverse=True)
    comm = sorted((int(s) for s in sizes), reverse=True)
    if len(order) != sum(comm):
        raise ConfigurationError("node count does not match the community sizes")
    heap: list[tuple[int, int]] = []  # (-remaining, community index)
    next_comm = 0
    for e in order:
        while next_comm < len(comm) and comm[next_comm] - 1 >= e:
            heapq.heappush(heap, (-comm[next_comm], next_comm))
            next_comm += 1
        while heap and -heap[0][0] == 0:
            heapq.heappop(heap)
        if not heap:
            return False
        cap, idx = heapq.heappop(heap)
        heapq.heappush(heap, (cap + 1, idx))
    return True


# the full gate with one pass per community: each community's intra
# sequence on its own, then the inter aggregates and the per-node bound


def reference_check_graphable(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    membership=None,
) -> GraphabilityReport:
    """Full graphability report for one timestep's sequences.

    With a concrete ``membership`` (community index per node slot) the
    Erdos-Gallai condition is applied per community on the intra degrees, the
    max condition on per-community inter aggregates, the bound
    ``f_i <= n - |c_i|`` on every node's inter degree and, when exactly two
    communities hold inter stubs, the Gale-Ryser inequalities between them.
    Without one, only the global parities, the capacity matching and, for a
    single community, an inter sum of 0 can be verified, in that order.
    Only ``spec.total`` and ``spec.intra`` are read, as the library reads
    them, so assembly's node columns serve as a spec.
    """
    total = [int(d) for d in spec.total]
    intra = [int(e) for e in spec.intra]
    inter = [d - e for d, e in zip(total, intra)]
    n = len(total)
    if sizes.node_count != n:
        raise ConfigurationError(
            f"community sizes cover {sizes.node_count} nodes but {n} degree slots were given"
        )

    if membership is None:
        if sum(intra) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTRA_PARITY, "total intra degree sum is odd"
            )
        if sum(inter) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTER_PARITY, "total inter degree sum is odd"
            )
        if not reference_assignment_feasible(sizes.sizes, intra):
            return GraphabilityReport(
                False,
                None,
                FailedCondition.ASSIGNMENT_INFEASIBLE,
                "some intra degree exceeds every community's capacity",
            )
        if len(sizes) == 1 and sum(inter):
            return GraphabilityReport(
                False,
                0,
                FailedCondition.INTER_LONE_COMMUNITY,
                f"{sum(inter)} inter stubs in a single community:"
                " no other community exists to take them",
            )
        return GraphabilityReport(True)

    membership = [int(c) for c in membership]
    if len(membership) != n:
        raise ConfigurationError("membership length does not match the degree slots")
    k = len(sizes)
    members: list[list[int]] = [[] for _ in range(k)]
    for slot, c in enumerate(membership):
        if not 0 <= c < k:
            raise ConfigurationError(f"slot {slot}: community index {c} out of range")
        members[c].append(slot)
    for c, group in enumerate(members):
        if len(group) != sizes.sizes[c]:
            raise ConfigurationError(
                f"community {c}: membership places {len(group)} nodes, size is {sizes.sizes[c]}"
            )

    for c, group in enumerate(members):
        es = [intra[i] for i in group]
        size = sizes.sizes[c]
        if any(e > size - 1 for e in es):
            return GraphabilityReport(
                False,
                c,
                FailedCondition.ASSIGNMENT_INFEASIBLE,
                f"community {c}: an intra degree reaches the community size",
            )
        if sum(es) % 2 == 1:
            return GraphabilityReport(
                False, c, FailedCondition.INTRA_PARITY, f"community {c}: odd intra degree sum"
            )
        if not erdos_gallai(es):
            return GraphabilityReport(
                False,
                c,
                FailedCondition.INTRA_ERDOS_GALLAI,
                f"community {c}: intra sequence fails the Erdos-Gallai condition",
            )

    aggregates = [sum(inter[i] for i in group) for group in members]
    if sum(aggregates) % 2 == 1:
        return GraphabilityReport(
            False, None, FailedCondition.INTER_PARITY, "total inter degree sum is odd"
        )
    if not inter_graphable(aggregates):
        worst = max(range(k), key=lambda c: aggregates[c])
        return GraphabilityReport(
            False,
            worst,
            FailedCondition.INTER_MAX,
            f"community {worst}: inter aggregate exceeds the remaining inter stubs",
        )
    for slot, c in enumerate(membership):
        outside = n - sizes.sizes[c]
        if inter[slot] > outside:
            return GraphabilityReport(
                False,
                c,
                FailedCondition.INTER_NODE_MAX,
                f"community {c}: slot {slot} needs {inter[slot]} inter partners,"
                f" only {outside} nodes lie outside",
            )
    holders = [c for c in range(k) if aggregates[c]]
    if len(holders) == 2:
        # the largest excess of a Gale-Ryser inequality from each side
        excess = []
        for c, other in (holders, holders[::-1]):
            a = sorted((inter[i] for i in members[c]), reverse=True)
            b = [inter[i] for i in members[other]]
            excess.append(
                max(sum(a[:j]) - sum(min(x, j) for x in b) for j in range(1, len(a) + 1))
            )
        if max(excess) > 0:
            c, other = holders if excess[0] >= excess[1] else holders[::-1]
            return GraphabilityReport(
                False,
                c,
                FailedCondition.INTER_GALE_RYSER,
                f"community {c}: inter degrees fail the Gale-Ryser condition"
                f" against community {other}",
            )
    return GraphabilityReport(True)
