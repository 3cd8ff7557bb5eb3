"""Realizability tests for clustered degree sequences.

A (sizes, degrees) pair is accepted when every community's intra sequence is
graphable as a simple graph (Erdos-Gallai), the community-aggregated inter
degrees are graphable as a loop-free multigraph on the reduced community
graph, and no node needs more inter partners than live outside its
community.  When exactly two communities hold inter stubs, every inter link
joins those two, so the inter phase is a bipartite graph and the Gale-Ryser
condition (Gale 1957; Ryser 1957) decides it exactly.  Before a membership
exists only necessary conditions can be checked: global sum parities, the
capacity matching between intra degrees and community sizes, which Hall's
condition decides by counting, and, for a single community, an inter sum of
0, since no other community exists to take its inter stubs.
"""

from __future__ import annotations

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
    INTER_LONE_COMMUNITY = "inter_lone_community"
    INTER_GALE_RYSER = "inter_gale_ryser"


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
    sorted non-increasingly, as the one-segment case of the pass that
    ``check_graphable`` makes over every community.
    """
    d = np.asarray(list(degrees), dtype=np.int64)
    if d.size == 0:
        return True
    if int(d.min()) < 0:
        raise ConfigurationError("degrees must be non-negative")
    if int(d.sum()) % 2 == 1:
        return False
    *_, not_graphic = _segmented_erdos_gallai(np.zeros(d.size, dtype=np.int64), d, [d.size])
    return not not_graphic[0]


def _segmented_erdos_gallai(member: np.ndarray, e: np.ndarray, counts):
    """The Erdos-Gallai inequalities of every k of every community in one numpy pass.

    ``member`` gives each degree in ``e`` its community, and ``counts[c]``,
    at least 1, is community c's member count.  Returns the degrees sorted
    by (community, e), their prefix sums from 0, each community's segment
    ``[starts[c], ends[c])`` of them, and whether each community fails some
    inequality.  The entry at position i of segment [s, t) is its
    (t - i)-th largest, the tail after the k largest is [s, i), and its
    entries at most k are [s, below): one ``searchsorted`` over a
    (community, e) key finds ``below`` for every k at once.  A key past the
    segment's last (k >= span) is capped at i like any other; an entry equal
    to k adds k whichever side the search takes.
    """
    n = e.size
    span = int(e.max()) + 1
    key = member * span + e
    order = np.argsort(key, kind="stable")
    key = key[order]
    seg = member[order]
    ends = np.cumsum(counts)
    starts = ends - counts
    es = e[order]
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(es, out=cum[1:])
    pos = np.arange(n)
    s, t = starts[seg], ends[seg]
    kk = t - pos
    below = np.minimum(np.searchsorted(key, seg * span + kk, side="right"), pos)
    rhs = kk * (kk - 1) + cum[below] - cum[s] + kk * (pos - below)
    not_graphic = np.zeros(len(counts), dtype=bool)
    not_graphic[seg[cum[t] - cum[pos] > rhs]] = True
    return es, cum, starts, ends, not_graphic


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


def _gale_ryser_excess(a: np.ndarray, b: np.ndarray) -> int:
    """The largest excess of a Gale-Ryser inequality of side ``a`` against side ``b``.

    For every k, the k largest of ``a`` may need at most
    ``sum_j min(b_j, k)`` partners in ``b``; returns the largest
    ``sum_{i<=k} a_i - sum_j min(b_j, k)``, positive iff some inequality
    fails.  With ``b`` sorted, its entries below k are a prefix, so each
    right-hand side is a prefix sum plus k times the count of the rest.
    """
    k = np.arange(1, a.size + 1)
    b = np.sort(b)
    cum = np.zeros(b.size + 1, dtype=np.int64)
    np.cumsum(b, out=cum[1:])
    below = np.searchsorted(b, k)
    rhs = cum[below] + k * (b.size - below)
    return int((np.cumsum(np.sort(a)[::-1]) - rhs).max())


def assignment_feasible(sizes, intra) -> bool:
    """True iff intra degrees can be placed into communities with ``e <= size - 1``.

    Hall's condition as a count: with the intra degrees sorted
    non-increasingly, for every j the j-th largest must fit, with the j - 1
    before it, into the total size of the communities whose room
    ``size - 1`` reaches it.  The count is exact, because nodes placed in
    non-increasing intra order are never more constrained than the ones
    before them: the communities open to the j-th node hold every earlier
    node, so one place is left for it whenever the count holds.
    """
    e = np.sort(np.asarray(intra, dtype=np.int64))[::-1]
    size = np.sort(np.asarray(list(sizes), dtype=np.int64))
    if e.size != size.sum():
        raise ConfigurationError("node count does not match the community sizes")
    # reach[j]: total size of the communities whose room reaches e[j], a
    # suffix sum of the ascending sizes from the first room at or above e[j]
    suffix = np.append(np.cumsum(size[::-1])[::-1], 0)
    reach = suffix[np.searchsorted(size - 1, e, side="left")]
    return bool((np.arange(1, e.size + 1) <= reach).all())


def _membership_counts(sizes: CommunitySpec, member: np.ndarray) -> np.ndarray:
    """Each community's member count in the int64 ``member`` column of
    community indices; ``ConfigurationError`` refuses an index outside
    ``range(len(sizes))`` and a count other than the community's size."""
    k = len(sizes)
    outside_range = (member < 0) | (member >= k)
    if outside_range.any():
        slot = int(outside_range.argmax())
        raise ConfigurationError(f"slot {slot}: community index {member[slot]} out of range")
    counts = np.bincount(member, minlength=k)
    miscounted = counts != sizes.sizes
    if miscounted.any():
        c = int(miscounted.argmax())
        raise ConfigurationError(
            f"community {c}: membership places {counts[c]} nodes, size is {sizes.sizes[c]}"
        )
    return counts


def check_graphable(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    membership=None,
) -> GraphabilityReport:
    """Full graphability report for one timestep's sequences.

    With a concrete ``membership`` (community index per node slot) the
    Erdos-Gallai condition is applied per community on the intra degrees, the
    max condition on per-community inter aggregates, the bound
    ``f_i <= n - |c_i|`` on every node's inter degree and, when exactly two
    communities hold inter stubs, the Gale-Ryser inequalities between them,
    which make the inter check exact.  Without one, only the global
    parities, the capacity matching and, for a single community, an inter
    sum of 0 can be verified, in that order.

    The membership conditions are one segmented numpy pass over every
    community at once, on the intra degrees sorted by (community, e): a
    degree above the room ``size - 1``, an odd intra sum and the
    Erdos-Gallai inequalities of every k, with one ``searchsorted`` over a
    (community, e) key.  The report names the first failing community and,
    of its failing conditions, the first in that order, as one loop over
    the communities would.  The inter aggregates are one ``bincount`` and
    the node bound one first-index search.  Gale-Ryser is checked from each
    side, and the report names the community whose inequality fails by the
    most (the lower index on a tie).

    Only ``spec.total`` and ``spec.intra`` are read, each once as int64, and
    the inter degrees are their difference, so any pair of equal-length
    integer columns under those names serves, as assembly's node columns do.
    """
    total = np.asarray(spec.total, dtype=np.int64)
    e = np.asarray(spec.intra, dtype=np.int64)
    f = total - e
    n = total.size
    if sizes.node_count != n:
        raise ConfigurationError(
            f"community sizes cover {sizes.node_count} nodes but {n} degree slots were given"
        )

    if membership is None:
        if int(e.sum()) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTRA_PARITY, "total intra degree sum is odd"
            )
        if int(f.sum()) % 2 == 1:
            return GraphabilityReport(
                False, None, FailedCondition.INTER_PARITY, "total inter degree sum is odd"
            )
        if not assignment_feasible(sizes.sizes, e):
            return GraphabilityReport(
                False,
                None,
                FailedCondition.ASSIGNMENT_INFEASIBLE,
                "some intra degree exceeds every community's capacity",
            )
        if len(sizes) == 1 and f.any():
            return GraphabilityReport(
                False,
                0,
                FailedCondition.INTER_LONE_COMMUNITY,
                f"{int(f.sum())} inter stubs in a single community:"
                " no other community exists to take them",
            )
        return GraphabilityReport(True)

    member = np.asarray(membership, dtype=np.int64)
    if member.shape != (n,):
        raise ConfigurationError("membership length does not match the degree slots")
    k = len(sizes)
    counts = _membership_counts(sizes, member)
    size = np.array(sizes.sizes, dtype=np.int64)

    # every community is a non-empty segment of the sorted intra degrees
    es, cum, starts, ends, not_graphic = _segmented_erdos_gallai(member, e, counts)
    too_high = es[ends - 1] > size - 1
    odd = (cum[ends] - cum[starts]) % 2 == 1
    failing = too_high | odd | not_graphic
    if failing.any():
        c = int(failing.argmax())
        if too_high[c]:
            return GraphabilityReport(
                False,
                c,
                FailedCondition.ASSIGNMENT_INFEASIBLE,
                f"community {c}: an intra degree reaches the community size",
            )
        if odd[c]:
            return GraphabilityReport(
                False, c, FailedCondition.INTRA_PARITY, f"community {c}: odd intra degree sum"
            )
        return GraphabilityReport(
            False,
            c,
            FailedCondition.INTRA_ERDOS_GALLAI,
            f"community {c}: intra sequence fails the Erdos-Gallai condition",
        )

    aggregates = np.bincount(member, weights=f, minlength=k).astype(np.int64)
    if int(aggregates.sum()) % 2 == 1:
        return GraphabilityReport(
            False, None, FailedCondition.INTER_PARITY, "total inter degree sum is odd"
        )
    if not inter_graphable(aggregates):
        worst = int(aggregates.argmax())
        return GraphabilityReport(
            False,
            worst,
            FailedCondition.INTER_MAX,
            f"community {worst}: inter aggregate exceeds the remaining inter stubs",
        )
    outside = n - size[member]
    crowded = f > outside
    if crowded.any():
        slot = int(crowded.argmax())
        c = int(member[slot])
        return GraphabilityReport(
            False,
            c,
            FailedCondition.INTER_NODE_MAX,
            f"community {c}: slot {slot} needs {f[slot]} inter partners,"
            f" only {outside[slot]} nodes lie outside",
        )
    holders = np.flatnonzero(aggregates).tolist()
    if len(holders) == 2:
        a, b = (f[member == c] for c in holders)
        excess = [_gale_ryser_excess(a, b), _gale_ryser_excess(b, a)]
        worst = excess.index(max(excess))
        if excess[worst] > 0:
            c, other = holders[worst], holders[1 - worst]
            return GraphabilityReport(
                False,
                c,
                FailedCondition.INTER_GALE_RYSER,
                f"community {c}: inter degrees fail the Gale-Ryser condition"
                f" against community {other}",
            )
    return GraphabilityReport(True)
