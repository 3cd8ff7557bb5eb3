"""Snapshot assembly: degree/community placement and the modified configuration model.

Wiring pairs degree stubs one node at a time.  Partner stubs are drawn
i.i.d. by sampling a position, through a Beta(alpha, beta) variate, in the
list of open stubs sorted by owner total degree: alpha >> beta biases links
toward high-degree partners (assortative), the uniform case alpha = beta = 1
reproduces plain configuration-model pairing conditioned on simplicity.
Self-loops and duplicate links are excluded by construction; dead ends are
repaired by breaking an existing link of an otherwise-eligible node, within
a configurable budget.

The open stubs live in a Fenwick tree (Fenwick, "A new data structure for
cumulative frequency tables", 1994) over the degree-ordered positions, so a
draw, and each ban or stub update, costs O(log n).  While a node fills, it
and its neighbours carry weight 0 in the tree.  Inter mode adds one tree per
community over the same positions, k * n cells in all, and descends the
global tree minus the node's own-community tree.  A draw picks exactly the
position that a cumulative sum and ``searchsorted`` would pick.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GraphabilityError, WiringError
from .graphability import check_graphable
from .sequences import CommunitySpec, DegreeSpec

log = logging.getLogger(__name__)

DEFAULT_REPAIR_BUDGET_FACTOR = 50
# a snapshot gives up after ASSIGNMENT_ATTEMPTS failed attempts; an attempt
# fails at parity repair, at the gate, or after MISFIT_PASSES passes in a row
# in which some node fit nowhere (so at most 200 assignment passes)
ASSIGNMENT_ATTEMPTS = 10
MISFIT_PASSES = 20


@dataclass
class ShapeParams:
    """Beta-distribution shape parameters steering a position draw."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigurationError("beta shape parameters must be positive")


@dataclass
class Node:
    """One node of a snapshot; ids stay stable across timesteps."""

    id: int
    degree: int
    intra_degree: int
    community: int

    @property
    def inter_degree(self) -> int:
        return self.degree - self.intra_degree


@dataclass
class Snapshot:
    """A realized simple graph with its ground-truth clustering."""

    t: int
    nodes: dict[int, Node]
    links: set[tuple[int, int]]  # (u, v) with u < v
    clustering: list[set[int]]
    community_labels: list[int] = field(default_factory=list)
    wiring_repairs: int = 0
    disconnected_communities: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.community_labels:
            self.community_labels = list(range(len(self.clustering)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    @property
    def community_count(self) -> int:
        return len(self.clustering)

    def validate(self) -> None:
        """Hard postconditions: simplicity, partition validity, exact degrees."""
        nodes = self.nodes
        realized = dict.fromkeys(nodes, 0)
        realized_intra = dict.fromkeys(nodes, 0)
        seen = set()
        for u, v in self.links:
            if u == v:
                raise AssertionError(f"self-loop at node {u}")
            if u not in nodes or v not in nodes:
                raise AssertionError(f"link ({u}, {v}) references unknown nodes")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise AssertionError(f"duplicate link {key}")
            seen.add(key)
            realized[u] += 1
            realized[v] += 1
            if nodes[u].community == nodes[v].community:
                realized_intra[u] += 1
                realized_intra[v] += 1
        covered = set()
        for c, group in enumerate(self.clustering):
            if covered & group:
                raise AssertionError(f"community {c} overlaps another community")
            covered |= group
        if covered != set(nodes):
            raise AssertionError("clustering does not cover the node set")
        for nid, node in nodes.items():
            if nid not in self.clustering[node.community]:
                raise AssertionError(f"node {nid} missing from its community")
        for nid, node in nodes.items():
            if realized[nid] != node.degree:
                raise AssertionError(
                    f"node {nid}: realized degree {realized[nid]} != spec {node.degree}"
                )
            if realized_intra[nid] != node.intra_degree:
                raise AssertionError(
                    f"node {nid}: realized intra degree {realized_intra[nid]}"
                    f" != spec {node.intra_degree}"
                )


# ---------------------------------------------------------------------------
# node assignment
# ---------------------------------------------------------------------------


def assign_nodes(
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
    community size.

    Temporal mode: every id in ``surviving`` keeps its flow-dictated
    community; nodes with a previous degree draw their new tuple by sampling
    a Beta(``temporal_shape``) position in the remaining degree-ordered tuple
    list (restricted to tuples that fit the community), largest previous
    degrees drawing first.  Ids without history (newborns) draw uniformly.

    One pass; raises ``GraphabilityError`` when a node finds no fitting
    community or tuple.  ``assemble_snapshot`` retries with fresh draws.
    """
    n = len(spec)
    if surviving is None:
        order = sorted(range(n), key=lambda i: (-spec.intra[i], -spec.total[i], i))
        caps = np.array(sizes.sizes, dtype=np.int64)
        room = np.array(sizes.sizes) - 1
        out: dict[int, tuple[int, int, int]] = {}
        for slot in order:
            e = spec.intra[slot]
            eligible = np.flatnonzero((caps > 0) & (room >= e))
            if eligible.size == 0:
                raise GraphabilityError("node assignment ran out of community capacity")
            weights = caps[eligible].astype(np.float64)
            c = int(rng.choice(eligible, p=weights / weights.sum()))
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


def repair_intra_parity(
    assignment: dict[int, tuple[int, int, int]],
    sizes: CommunitySpec,
) -> dict[int, tuple[int, int, int]]:
    """Make every community's intra degree sum even by swapping degree tuples.

    Swaps exchange the (d, e) tuples of two nodes in different odd-parity
    communities with different intra parity.  One scan takes the first
    fitting pair: equal total degree pairs first (they also preserve
    per-community degree sums), then any pair.  For deterministic splits the
    intra degree is a function of the total degree, so equal-degree pairs
    cannot differ in parity and only the second half of the scan can fit.
    Community sizes and the global tuple multiset stay intact either way;
    raises ``GraphabilityError`` when no swap sequence exists.
    """
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
        ids1, ids2 = sorted(by_comm[c1]), sorted(by_comm[c2])
        pairs = itertools.chain(
            ((nid1, nid2) for nid2 in ids2 for nid1 in by_degree.get(out[nid2][1], ())),
            ((nid1, nid2) for nid2 in ids2 for nid1 in ids1),
        )
        for nid1, nid2 in pairs:
            e1, e2 = out[nid1][2], out[nid2][2]
            if (e1 ^ e2) & 1 and e1 <= s2 - 1 and e2 <= s1 - 1:
                return nid1, nid2
        return None

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


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _fenwick(weights: np.ndarray) -> list[int]:
    """Fenwick tree over ``weights``: cell i sums the ``i & -i`` weights
    ending at position i - 1; cell 0 is unused."""
    cum = np.zeros(weights.size + 1, dtype=np.int64)
    np.cumsum(weights, out=cum[1:])
    idx = np.arange(1, cum.size)
    cum[1:] -= cum[idx - (idx & -idx)]
    return cum.tolist()


class _StubSampler:
    """Open stubs of one wiring phase, drawn by degree-ordered position in O(log n).

    Positions sort the phase's nodes by (total degree, id); ``rem[p]`` counts
    the open stubs at position p.  ``tree`` is a Fenwick tree over each
    position's effective weight: ``rem[p]``, or 0 while p is banned for the
    node being filled.  In inter mode (``community_of`` given) ``own[c]``
    mirrors those effective weights for the members of community c only, so
    the weight eligible for a node of community c is ``tree - own[c]``.
    ``saturated`` holds the positions whose stubs were all taken by links.
    """

    def __init__(self, entries, community_of=None):
        # entries: iterable of (node_id, total_degree, stubs)
        entries = sorted(entries, key=lambda t: (t[1], t[0]))
        self.ids = [nid for nid, _, _ in entries]
        self.pos = {nid: p for p, nid in enumerate(self.ids)}
        rem = np.array([s for _, _, s in entries], dtype=np.int64)
        self.rem: list[int] = rem.tolist()
        self.banned = [False] * len(self.ids)
        self.saturated: set[int] = set()
        self.tree = _fenwick(rem)
        self.total = sum(self.rem)
        self.comm: list[int] | None = None
        if community_of is not None:
            index: dict[object, int] = {}
            self.comm = [index.setdefault(community_of[nid], len(index)) for nid in self.ids]
            comm = np.array(self.comm, dtype=np.int64)
            self.own: list[list[int]] = []
            self.own_total: list[int] = []
            for c in range(len(index)):
                weights = np.where(comm == c, rem, 0)
                self.own.append(_fenwick(weights))
                self.own_total.append(int(weights.sum()))

    def _add(self, p: int, delta: int) -> None:
        """Add ``delta`` to position p's effective weight."""
        tree, m = self.tree, len(self.rem)
        i = p + 1
        self.total += delta
        if self.comm is None:
            while i <= m:
                tree[i] += delta
                i += i & -i
            return
        c = self.comm[p]
        own = self.own[c]
        self.own_total[c] += delta
        while i <= m:
            tree[i] += delta
            own[i] += delta
            i += i & -i

    def ban(self, p: int) -> None:
        self.banned[p] = True
        if self.rem[p]:
            self._add(p, -self.rem[p])

    def unban(self, p: int) -> None:
        self.banned[p] = False
        if self.rem[p]:
            self._add(p, self.rem[p])

    def take(self, p: int) -> None:
        """Close one of position p's stubs."""
        self.rem[p] -= 1
        if not self.rem[p]:
            self.saturated.add(p)
        if not self.banned[p]:
            self._add(p, -1)

    def give(self, p: int) -> None:
        """Reopen one of position p's stubs."""
        self.rem[p] += 1
        self.saturated.discard(p)
        if not self.banned[p]:
            self._add(p, 1)

    def draw(self, rng, shape: ShapeParams, p: int) -> int | None:
        """Position of a partner for position p's node, or None when none is eligible.

        The Beta variate picks a rank among the eligible stubs; the descent
        returns the first position whose eligible prefix weight exceeds it.
        """
        tree = self.tree
        if self.comm is None:
            own, total = None, self.total
        else:
            c = self.comm[p]
            own, total = self.own[c], self.total - self.own_total[c]
        if total <= 0:
            return None
        rank = min(int(rng.beta(shape.alpha, shape.beta) * total), total - 1)
        m = len(self.rem)
        pos = 0
        step = 1 << (m.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= m:
                w = tree[nxt] if own is None else tree[nxt] - own[nxt]
                if w <= rank:
                    pos = nxt
                    rank -= w
            step >>= 1
        return pos


def _wire_phase(
    entries,
    shape: ShapeParams,
    rng: np.random.Generator,
    budget: int,
    community_of: dict[int, int] | None = None,
) -> tuple[set[tuple[int, int]], int]:
    """Pair all stubs into simple links; returns (links, repairs used).

    ``community_of`` switches inter mode: partners must then live in a
    different community.  Raises ``WiringError`` when the repair budget is
    exhausted.
    """
    pool = _StubSampler(entries, community_of)
    ids, pos, rem = pool.ids, pool.pos, pool.rem
    if pool.total % 2 == 1:
        raise WiringError("odd number of stubs in a wiring phase")
    adjacency: dict[int, set[int]] = defaultdict(set)
    links: set[tuple[int, int]] = set()
    repairs = 0

    heap = [(-d, nid) for nid, d, s in entries if s > 0]
    heapq.heapify(heap)
    degree_of = {nid: d for nid, d, _ in entries}

    def add_link(u: int, b: int) -> None:
        # u is being filled: b joins its banned neighbours
        links.add((u, b) if u < b else (b, u))
        adjacency[u].add(b)
        adjacency[b].add(u)
        pool.ban(pos[b])
        pool.take(pos[u])
        pool.take(pos[b])

    def repair(u: int) -> None:
        nonlocal repairs
        # candidates, in position order: eligible partners with all stubs
        # taken, so >= 1 link to break (u itself still has open stubs)
        cands = []
        for p in sorted(pool.saturated):
            w = ids[p]
            if w in adjacency[u]:
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
        key = (w, v) if w < v else (v, w)
        links.discard(key)
        adjacency[w].discard(v)
        adjacency[v].discard(w)
        pool.give(pos[w])
        pool.give(pos[v])
        add_link(u, w)
        heapq.heappush(heap, (-degree_of[v], v))
        repairs += 1
        if repairs > budget:
            raise WiringError(f"wiring repair budget ({budget}) exhausted")

    while heap:
        _, u = heapq.heappop(heap)
        p = pos[u]
        if not rem[p]:
            continue
        pool.ban(p)
        for v in adjacency[u]:
            pool.ban(pos[v])
        while rem[p] > 0:
            q = pool.draw(rng, shape, p)
            if q is None:
                repair(u)
            else:
                add_link(u, ids[q])
        pool.unban(p)
        for v in adjacency[u]:
            pool.unban(pos[v])
    if any(rem):
        raise WiringError("stubs left unpaired after the wiring loop")
    return links, repairs


def wire_intra(
    members,
    pairing_shape: ShapeParams,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[set[tuple[int, int]], int]:
    """Wire one community's intra links; ``members`` is (id, total d, intra e) triples.

    Every member's realized intra degree equals its ``e`` exactly; the intra
    sequence must pass the Erdos-Gallai test beforehand.
    """
    members = list(members)
    if budget is None:
        budget = DEFAULT_REPAIR_BUDGET_FACTOR * max(1, len(members))
    return _wire_phase(members, pairing_shape, rng, budget)


def wire_inter(
    nodes,
    pairing_shape: ShapeParams,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[set[tuple[int, int]], int]:
    """Wire all inter-community links; ``nodes`` is (id, total d, inter f, community).

    Partners always live in different communities, so no inter link can
    duplicate an intra link.
    """
    nodes = list(nodes)
    if budget is None:
        budget = DEFAULT_REPAIR_BUDGET_FACTOR * max(1, len(nodes))
    entries = [(nid, d, f) for nid, d, f, _ in nodes]
    community_of = {nid: c for nid, _, _, c in nodes}
    return _wire_phase(entries, pairing_shape, rng, budget, community_of=community_of)


def check_connectivity(member_ids, links) -> int:
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


# ---------------------------------------------------------------------------
# snapshot orchestration
# ---------------------------------------------------------------------------


def assemble_snapshot(
    t: int,
    sizes: CommunitySpec,
    spec: DegreeSpec,
    rng: np.random.Generator,
    pairing_shape: ShapeParams | None = None,
    temporal_shape: ShapeParams | None = None,
    surviving: dict[int, int] | None = None,
    prev_degrees: dict[int, int] | None = None,
    repair_budget_factor: int = DEFAULT_REPAIR_BUDGET_FACTOR,
) -> Snapshot:
    """Build one snapshot: assign, repair parity, gate, wire, and validate.

    The full post-assignment graphability check runs before any wiring.  A
    failing assignment pass is redrawn; ``GraphabilityError`` ends the
    snapshot after ``ASSIGNMENT_ATTEMPTS`` failed attempts.
    """
    pairing_shape = pairing_shape or ShapeParams()
    failures: list[str] = []
    misfits = 0
    while len(failures) < ASSIGNMENT_ATTEMPTS:
        try:
            assignment = assign_nodes(
                sizes,
                spec,
                rng,
                surviving=surviving,
                temporal_shape=temporal_shape,
                prev_degrees=prev_degrees,
            )
        except GraphabilityError as exc:
            misfits += 1
            if misfits == MISFIT_PASSES:
                failures.append(str(exc))
                misfits = 0
            continue
        misfits = 0
        try:
            assignment = repair_intra_parity(assignment, sizes)
        except GraphabilityError as exc:
            failures.append(str(exc))
            continue
        ids = sorted(assignment)
        membership = [assignment[nid][0] for nid in ids]
        aligned = DegreeSpec(
            tuple(assignment[nid][1] for nid in ids),
            tuple(assignment[nid][2] for nid in ids),
        )
        report = check_graphable(sizes, aligned, membership)
        if report.ok:
            break
        failures.append(report.reason)
    else:
        raise GraphabilityError.exhausted(t, "assignment attempt", failures)

    nodes = {
        nid: Node(
            id=nid,
            degree=assignment[nid][1],
            intra_degree=assignment[nid][2],
            community=assignment[nid][0],
        )
        for nid in ids
    }
    clustering: list[set[int]] = [set() for _ in range(len(sizes))]
    for nid, node in nodes.items():
        clustering[node.community].add(nid)

    links: set[tuple[int, int]] = set()
    repairs = 0
    disconnected = []
    for c, group in enumerate(clustering):
        members = [(nid, nodes[nid].degree, nodes[nid].intra_degree) for nid in sorted(group)]
        budget = repair_budget_factor * max(1, len(members))
        community_links, used = wire_intra(members, pairing_shape, rng, budget)
        links |= community_links
        repairs += used
        if check_connectivity(group, community_links) > 1:
            disconnected.append(c)
    if disconnected:
        log.warning(
            "timestep %d: communities %s wired with multiple components", t, disconnected
        )

    inter_entries = [
        (nid, nodes[nid].degree, nodes[nid].inter_degree, nodes[nid].community)
        for nid in ids
    ]
    inter_links, used = wire_inter(
        inter_entries, pairing_shape, rng, repair_budget_factor * max(1, len(ids))
    )
    links |= inter_links
    repairs += used

    snap = Snapshot(
        t=t,
        nodes=nodes,
        links=links,
        clustering=clustering,
        wiring_repairs=repairs,
        disconnected_communities=disconnected,
    )
    snap.validate()
    return snap
