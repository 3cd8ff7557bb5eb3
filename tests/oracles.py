"""Independent verification oracles used across the test suite.

Everything here is deliberately written along a different path than the
library: realizability by exhaustive backtracking over adjacency structures,
VI through entropies, modularity straight from the definition, connectivity
through the Laplacian spectrum, and tiny flow counts by filtering the full
cell product.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np


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
