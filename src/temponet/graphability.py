"""Realizability tests for clustered degree sequences.

A (sizes, degrees) pair is accepted when every community's intra sequence is
graphable as a simple graph (Erdos-Gallai), the community-aggregated inter
degrees are graphable as a loop-free multigraph on the reduced community
graph, and no node needs more inter partners than live outside its
community.  Before a membership exists only the necessary conditions can be
checked: global sum parities plus the capacity matching between intra degrees
and community sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .sequences import CommunitySpec, DegreeSpec


class FailedCondition(Enum):
    INTRA_PARITY = "intra_parity"
    INTRA_ERDOS_GALLAI = "intra_erdos_gallai"
    INTER_PARITY = "inter_parity"
    INTER_MAX = "inter_max"
    INTER_NODE_MAX = "inter_node_max"
    ASSIGNMENT_INFEASIBLE = "assignment_infeasible"


@dataclass
class GraphabilityReport:
    ok: bool
    failing_community: int | None = None
    failing_condition: FailedCondition | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @property
    def reason(self) -> str:
        return f"{self.failing_condition.value}: {self.detail}"


def erdos_gallai(degrees) -> bool:
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


def inter_graphable(inter_aggregates) -> bool:
    """Graphability of community-aggregated inter degrees as a loop-free multigraph.

    Holds iff the sum is even and ``max(F) <= sum(F) - max(F)``.
    """
    agg = [int(g) for g in inter_aggregates]
    if any(g < 0 for g in agg):
        raise ConfigurationError("inter aggregates must be non-negative")
    if not agg:
        return True
    total = sum(agg)
    return total % 2 == 0 and 2 * max(agg) <= total


def assignment_feasible(sizes, intra) -> bool:
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


def check_graphable(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    membership=None,
) -> GraphabilityReport:
    """Full graphability report for one timestep's sequences.

    With a concrete ``membership`` (community index per node slot) the
    Erdos-Gallai condition is applied per community on the intra degrees, the
    max condition on per-community inter aggregates, and the bound
    ``f_i <= n - |c_i|`` on every node's inter degree.  Without one, only
    the global parities and the capacity matching can be verified.
    """
    n = len(spec)
    if sizes.node_count != n:
        raise ConfigurationError(
            f"community sizes cover {sizes.node_count} nodes but {n} degree slots were given"
        )
    intra = spec.intra
    inter = spec.inter

    if membership is None:
        if sum(intra) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTRA_PARITY, "total intra degree sum is odd"
            )
        if sum(inter) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTER_PARITY, "total inter degree sum is odd"
            )
        if not assignment_feasible(sizes.sizes, intra):
            return GraphabilityReport(
                False,
                None,
                FailedCondition.ASSIGNMENT_INFEASIBLE,
                "some intra degree exceeds every community's capacity",
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
    return GraphabilityReport(True)
