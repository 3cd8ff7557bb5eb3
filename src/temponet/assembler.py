"""Snapshot assembly: degree/community placement and the modified configuration model.

Wiring pairs degree stubs one node at a time.  Partner stubs are drawn
i.i.d. by sampling a position, through a Beta(alpha, beta) variate, in the
list of open stubs sorted by owner total degree: alpha >> beta biases links
toward high-degree partners (assortative), the uniform case alpha = beta = 1
reproduces plain configuration-model pairing conditioned on simplicity.
Self-loops and duplicate links are excluded by construction; dead ends are
repaired by breaking an existing link of an otherwise-eligible node, at
most ``REPAIR_BUDGET_FACTOR`` (50) repairs per node of the phase.

The open stubs live in a Fenwick tree (Fenwick, "A new data structure for
cumulative frequency tables", 1994) over the degree-ordered positions, so a
draw, and each ban or stub update, costs O(log n).  While a node fills, it
and its neighbours carry weight 0 in the tree.  Inter mode adds one tree per
community over the same positions, k * n cells in all, and descends the
global tree minus the node's own-community tree.  A draw picks exactly the
position that a cumulative sum and ``searchsorted`` would pick.

The fill loop is C (``_fill.c``, whose library also formats the CSV
export's text), which the system C compiler builds at the first wiring or
export call of a process into the user's cache (see ``_kernel``); where no
build loads, ``_pair``, its port to Python, runs instead.  One driver,
``_fill``, runs either loop: it allocates the loop's state once, and it
alone calls the generator, picks repairs, checks the repair budget and
raises, so both loops wire alike.  One ``wire_intra`` call wires all
communities of a snapshot, in index order, each as a phase with its own
tree, and ``wire_inter`` every node in one phase; one lexsort of the
snapshot's int64 node columns orders the positions and one numpy pass turns
the loop's partner array into link rows.  A phase of S
stubs makes exactly S / 2 draws, and ``_fill`` states the block rule by
which it reads their Beta variates: every exit leaves the generator where
one ``rng.beta`` call per draw would.

Node assignment draws from Fenwick trees too: bootstrap placement from one
tree over the k community capacities, temporal placement from trees over
the degree tuples.  Either mode checks Hall's count before it draws, and
temporal placement keeps the count true pick by pick, so a pass that starts
never fails.  Placement takes and returns the same int64 node columns as
wiring, in placement order, and parity repair swaps entries within them; a
snapshot sorts them once by id, then gates the assignment with one
segmented pass over all communities, so its fixed cost grows with n log n,
not n * k.
"""

from __future__ import annotations

import bisect
import copy
import ctypes
import functools
import hashlib
import heapq
import itertools
import logging
import os
import platform
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, GraphabilityError, WiringError
from .graphability import _membership_counts, assignment_feasible, check_graphable
from .sequences import CommunitySpec, DegreeSpec

log = logging.getLogger(__name__)

# a wiring phase of m nodes raises WiringError after more than 50 * m repairs;
# random realizable phases (n <= 40) needed at most 5.7 * m
REPAIR_BUDGET_FACTOR = 50
# a wiring phase reads at most VARIATE_BLOCK Beta variates at a time, so a
# repair, which replays the used part of the current block and reads the
# rest again, costs at most one block of extra variates
VARIATE_BLOCK = 1024
# a snapshot gives up after ASSIGNMENT_ATTEMPTS placement passes that parity
# repair or the gate rejects
ASSIGNMENT_ATTEMPTS = 10


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


_NODE_COLUMNS = ("ids", "degree", "intra_degree", "community")


@dataclass(eq=False)
class Snapshot:
    """A realized simple graph with its ground-truth clustering.

    The nodes are four read-only int64 columns with one entry per node:
    ``ids`` in strictly ascending order, ``degree``, ``intra_degree`` and
    ``community``, an index into ``range(community_count)``.  Each node thus
    has exactly one community, and a community may be empty.  ``endpoints``
    is a new read-only (m, 2) int64 array built from any pairs, each row
    turned to u <= v and the rows sorted by (u, v); any other shape but an
    empty one is refused.  Snapshots compare by identity.
    """

    t: int
    ids: np.ndarray
    degree: np.ndarray
    intra_degree: np.ndarray
    community: np.ndarray
    community_count: int
    endpoints: np.ndarray
    community_labels: list[int] = field(default_factory=list)
    wiring_repairs: int = 0
    disconnected_communities: list[int] = field(default_factory=list)

    def __post_init__(self):
        endpoints = self.endpoints
        if not isinstance(endpoints, np.ndarray):
            endpoints = list(endpoints)
        endpoints = np.asarray(endpoints, dtype=np.int64)
        if endpoints.size == 0:
            endpoints = endpoints.reshape(0, 2)
        if endpoints.shape[1:] != (2,):
            raise ConfigurationError(f"endpoints of shape {endpoints.shape} are not (m, 2) rows")
        endpoints = np.sort(endpoints, axis=1)
        self.endpoints = endpoints[_pair_order(endpoints[:, 0], endpoints[:, 1])]
        for name in _NODE_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = self.ids.size
        if any(getattr(self, name).shape != (n,) for name in _NODE_COLUMNS):
            raise ConfigurationError("the node columns differ in length")
        _check_ascending(self.ids)
        for name in (*_NODE_COLUMNS, "endpoints"):
            getattr(self, name).flags.writeable = False
        if not self.community_labels:
            self.community_labels = list(range(self.community_count))

    def __deepcopy__(self, memo):
        """A copy built through the constructor, so its columns are read-only too."""
        return Snapshot(
            **{f.name: copy.deepcopy(getattr(self, f.name), memo) for f in fields(self)}
        )

    @property
    def nodes(self) -> dict[int, Node]:
        """The nodes by id, in id order, built anew on every access."""
        columns = (getattr(self, name).tolist() for name in _NODE_COLUMNS)
        return {nid: Node(nid, d, e, c) for nid, d, e, c in zip(*columns)}

    @property
    def links(self) -> frozenset[tuple[int, int]]:
        """The links as a set of (u, v) tuples, built anew on every access."""
        return frozenset(map(tuple, self.endpoints.tolist()))

    @property
    def node_count(self) -> int:
        return self.ids.size

    @property
    def link_count(self) -> int:
        return len(self.endpoints)

    def validate(self) -> None:
        """Hard postconditions: simplicity, community indices in range, exact degrees.

        The checks are numpy passes over the columns.  They raise for the
        first failing row of ``endpoints`` (self-loop, unknown id, or a
        duplicate: the rows are sorted, so a row equal to the one before it),
        then for the first node in id order whose community index lies
        outside ``range(community_count)``, then for the first node whose
        realized degree or intra degree differs from its column, as one loop
        over the rows and one over the nodes would.  The columns give each
        node one community, so no partition check is needed.
        """
        ids = self.ids
        n = len(ids)
        uv = self.endpoints
        at, known = _lookup(ids, uv)
        loop = uv[:, 0] == uv[:, 1]
        unknown = ~(known[:, 0] & known[:, 1])
        duplicate = np.zeros(len(uv), dtype=bool)
        duplicate[1:] = (uv[1:] == uv[:-1]).all(axis=1)
        failed = loop | unknown | duplicate
        if failed.any():
            i = int(failed.argmax())
            u, v = uv[i].tolist()
            if loop[i]:
                raise AssertionError(f"self-loop at node {u}")
            if unknown[i]:
                raise AssertionError(f"link ({u}, {v}) references unknown nodes")
            raise AssertionError(f"duplicate link {(u, v)}")
        k = self.community_count
        comm = self.community
        outside = (comm < 0) | (comm >= k)
        if outside.any():
            i = int(outside.argmax())
            raise AssertionError(
                f"node {int(ids[i])}: community index {int(comm[i])} outside the {k} communities"
            )
        realized = np.bincount(at.ravel(), minlength=n)
        realized_intra = np.bincount(at[comm[at[:, 0]] == comm[at[:, 1]]].ravel(), minlength=n)
        degree, intra_degree = self.degree, self.intra_degree
        wrong = (realized != degree) | (realized_intra != intra_degree)
        if wrong.any():
            i = int(wrong.argmax())
            nid = int(ids[i])
            if realized[i] != degree[i]:
                raise AssertionError(
                    f"node {nid}: realized degree {realized[i]} != spec {degree[i]}"
                )
            raise AssertionError(
                f"node {nid}: realized intra degree {realized_intra[i]}"
                f" != spec {intra_degree[i]}"
            )


def _check_ascending(ids: np.ndarray) -> None:
    """Refuse node ids that do not strictly ascend."""
    if (ids[1:] <= ids[:-1]).any():
        raise ConfigurationError("node ids do not strictly ascend")


def _lookup(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index in the strictly ascending ``ids`` of each of ``values``, and whether it is there.

    A value that ``ids`` lacks gets an arbitrary valid index and ``False``.
    Ids that span at most 8 slots per id and value go through a table
    indexed by id, a constant-time gather; sparser ids, which such a table
    could not hold, go through a binary search.
    """
    if not ids.size:
        return np.zeros(values.shape, dtype=np.intp), np.zeros(values.shape, dtype=bool)
    low = ids[0]
    span = int(ids[-1]) - int(low) + 1
    if span <= 8 * (ids.size + values.size):
        table = np.full(span, -1, dtype=np.intp)
        table[ids - low] = np.arange(ids.size)
        slot = values - low
        inside = (slot >= 0) & (slot < span)
        at = table[np.where(inside, slot, 0)]
        return at, inside & (at >= 0)
    at = np.searchsorted(ids, values)
    np.minimum(at, ids.size - 1, out=at)
    return at, ids[at] == values


def _pair_order(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stable order that sorts the pairs (u, v) by u, then v.

    When ``(u - min u) * span + (v - min v)``, with ``span`` the range of v,
    fits in int64, one stable argsort of that single key gives the order;
    otherwise ``np.lexsort`` does.
    """
    if not u.size:
        return np.zeros(0, dtype=np.intp)
    u_low, v_low = int(u.min()), int(v.min())
    span = int(v.max()) - v_low + 1
    if (int(u.max()) - u_low + 1) * span > np.iinfo(np.int64).max:
        return np.lexsort((v, u))
    return np.argsort((u - u_low) * span + (v - v_low), kind="stable")


# ---------------------------------------------------------------------------
# Fenwick trees
# ---------------------------------------------------------------------------


def _fenwick(weights) -> list[int]:
    """Fenwick tree over ``weights``, a list or an array whose length is a
    power of two: cell i sums the ``i & -i`` weights ending at position
    i - 1; cell 0 is unused.  A short list is summed in place, each cell
    into the one above it; anything else takes two numpy passes."""
    if isinstance(weights, list) and len(weights) <= 64:
        tree = [0, *weights]
        for i in range(1, len(weights)):
            tree[i + (i & -i)] += tree[i]
        return tree
    weights = np.asarray(weights, dtype=np.int64)
    cum = np.zeros(weights.size + 1, dtype=np.int64)
    np.cumsum(weights, out=cum[1:])
    idx = np.arange(1, cum.size)
    cum[1:] -= cum[idx - (idx & -idx)]
    return cum.tolist()


def _select(tree: list[int], size: int, rank: int) -> int:
    """The position at which the prefix sums of a Fenwick tree over ``size``
    positions (a power of two) first exceed ``rank``."""
    q = 0
    step = size >> 1
    while step:
        w = tree[q + step]
        if w <= rank:
            q += step
            rank -= w
        step >>= 1
    return q


def _select_minus(tree: list[int], minus: list[int], size: int, rank: int) -> int:
    """``_select`` over the difference of two Fenwick trees over ``size`` positions."""
    q = 0
    step = size >> 1
    while step:
        w = tree[q + step] - minus[q + step]
        if w <= rank:
            q += step
            rank -= w
        step >>= 1
    return q


def _prefix(tree: list[int], i: int) -> int:
    """The sum of a Fenwick tree's first ``i`` positions."""
    s = 0
    while i:
        s += tree[i]
        i &= i - 1
    return s


# tree sizes are powers of two, so a run needs few tables; the largest holds
# about half of the cache's memory
@functools.lru_cache(maxsize=16)
def _paths(size: int) -> list[tuple[int, ...]]:
    """The update paths of a Fenwick tree over ``size`` positions (a power of two).

    ``paths[q]`` lists the cells whose sums cover position q: q + 1, then up
    by ``i & -i`` to the root ``size``.  Adding w to each of them adds w at
    q.  A table is built once per size and shared, so callers must not
    change it; it holds ``size`` tuples, about 0.26 MB at 2**11 positions
    and 20 MB at 2**17.
    """
    # up[i]: cell i and the cells above it, to the root; cells past the root
    # get none
    up: list[tuple[int, ...]] = [()] * (2 * size + 1)
    for i in range(size, 0, -1):
        up[i] = (i, *up[i + (i & -i)])
    return up[1 : size + 1]


# ---------------------------------------------------------------------------
# node assignment
# ---------------------------------------------------------------------------


def assign_nodes(
    sizes: CommunitySpec,
    spec: DegreeSpec,
    rng: np.random.Generator,
    ids=None,
    community=None,
    temporal_shape: ShapeParams | None = None,
    prev_degree=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign communities and degree tuples to nodes, as int64 node columns.

    Returns ``(ids, community, degree, intra)`` in placement order: the j-th
    node placed is ``ids[j]``, and it takes ``community[j]``, total degree
    ``degree[j]`` and intra degree ``intra[j]``.  ``assemble_snapshot``
    sorts the columns by id; ``repair_intra_parity`` reads the order first.

    Bootstrap mode (``ids`` is None): node id ``slot`` takes the slot's
    degree tuple and is placed into a random community drawn with probability
    proportional to remaining capacity, never where ``e`` reaches the
    community size.  Slots place in non-increasing ``e``, then non-increasing
    ``d``, then slot order, and a Fenwick tree over the k community indices
    holds the remaining capacities of the eligible communities: a community
    joins it, with its whole size, once the falling ``e`` reaches its room
    ``size - 1``.  A node with uniform u takes ``rank = int(u * total)``,
    ``total`` the capacity in the tree, and the descent picks the first
    community whose capacity prefix sum exceeds it, the rank rule of wiring
    and temporal placement; the pick gives up one unit of capacity.  In this
    order no node runs out of capacity once ``assignment_feasible`` holds,
    so that count runs first.

    Temporal mode: node ``ids[i]`` keeps its flow-dictated ``community[i]``
    and, unless its ``prev_degree[i]`` is 0 (a newborn; a missing column
    makes every node one), draws its new tuple by sampling a
    Beta(``temporal_shape``) position in the remaining degree-ordered tuple
    list (restricted to tuples that fit the community).  Survivors place
    first, by non-increasing previous degree and then id; newborns follow in
    id order and draw uniformly.  A Fenwick tree counts the alive tuples in
    (d, e) order, and a descent selects the alive tuple of a given rank.  A
    community whose room ``size - 1`` lies below the largest ``e`` excludes
    the alive tuples with ``e`` above its room.  For each such room, one
    small tree counts those excluded tuples over the positions of the tuples
    above the smallest room.  The idx-th eligible tuple is then the alive
    tuple of rank r at the fixed point r = idx + (excluded alive tuples at
    or before it), reached from r = idx.

    Hall's count keeps every pass whole.  For each of those rooms, its
    slack counts the unplaced nodes with a room above it minus the alive
    tuples with ``e`` above it (its excluded tree's root); the remaining
    nodes can be placed iff no slack is negative (rooms at or above the
    largest ``e`` never bind).  A node of room R taking intra degree e
    lowers the slack of each room in [e, R) by one, so the pick is safe
    unless one of those is 0.  As no pick lowers a slack by more than one,
    the slacks are recounted, from the unplaced nodes per room and the
    trees' roots, only once as many picks have passed as their minimum at
    the last count.  An unsafe pick is re-mapped: with z the largest tight
    room below R, the same variate (a newborn's ``idx * sub // count``)
    selects among the ``sub`` alive tuples with ``e`` in (z, R], always at
    least one, by one descent over z's excluded tree minus the node's own.
    Safe picks stay as drawn, so the rule changes only passes in which some
    later node would have found no fitting tuple.

    Before any draw, ``ConfigurationError`` refuses temporal columns that
    are not one entry per degree slot, a repeated id, a community index
    outside ``range(len(sizes))``, a community count other than its size
    and a negative previous degree.  ``GraphabilityError`` comes only from
    the count before the first draw (in either mode), when no placement
    exists.  The uniforms (bootstrap) and the survivors' Beta variates
    (temporal) are drawn in one call at the start; newborns draw one
    ``rng.integers`` each.
    """
    n = len(spec)
    if ids is None:
        total = np.array(spec.total, dtype=np.int64)
        intra = np.array(spec.intra, dtype=np.int64)
        if not assignment_feasible(sizes.sizes, intra):
            raise GraphabilityError("node assignment ran out of community capacity")
        order = np.lexsort((-total, -intra))
        k = len(sizes)
        ksize = 1 << (k - 1).bit_length()
        paths = _paths(ksize)
        caps = [0] * (ksize + 1)  # Fenwick tree over the joined capacities
        # communities by room, largest first; each joins once e falls to its room
        joining = sorted(range(k), key=sizes.sizes.__getitem__, reverse=True)
        joined = 0
        picks = []
        for e, u in zip(intra[order].tolist(), rng.random(n).tolist()):
            while joined < k and sizes.sizes[joining[joined]] - 1 >= e:
                c = joining[joined]
                for i in paths[c]:
                    caps[i] += sizes.sizes[c]
                joined += 1
            c = _select(caps, ksize, int(u * caps[ksize]))
            for i in paths[c]:
                caps[i] -= 1
            picks.append(c)
        return order, np.array(picks, dtype=np.int64), total[order], intra[order]

    ids = np.asarray(ids, dtype=np.int64)
    if ids.size != n:
        raise ConfigurationError(f"{ids.size} surviving memberships for {n} degree slots")
    community = np.asarray(community, dtype=np.int64)
    prev = np.zeros(n, np.int64) if prev_degree is None else np.asarray(prev_degree, np.int64)
    _check_columns(ids, community, prev)
    _membership_counts(sizes, community)
    if prev.min() < 0:
        raise ConfigurationError("previous degrees must be >= 0")
    shape = temporal_shape or ShapeParams()
    order = np.lexsort((ids, -prev))
    survivors = int(np.count_nonzero(prev))
    tuples = np.array(sorted(zip(spec.total, spec.intra)), dtype=np.int64)
    e_of = tuples[:, 1].tolist()
    size = 1 << (n - 1).bit_length()
    flags = np.zeros(size, dtype=np.int64)
    flags[:n] = 1
    alive = _fenwick(flags)
    paths = _paths(size)
    # the rooms below the largest e, and the positions of the tuples above
    # the smallest of them: the only tuples any room excludes
    top = max(e_of)
    rooms = sorted({s - 1 for s in sizes.sizes if s - 1 < top})
    low = rooms[0] if rooms else top
    high = [q for q, e in enumerate(e_of) if e > low]
    hsize = 1 << max(len(high) - 1, 0).bit_length()
    e_high = np.full(hsize, low, dtype=np.int64)  # no room excludes the padding
    e_high[: len(high)] = [e_of[q] for q in high]
    excluded = {r: _fenwick((e_high > r).astype(np.int64)) for r in rooms}
    hpaths = _paths(hsize)
    # how many of those rooms lie below each intra degree and below each
    # community's room; the nodes still to place, by the latter count
    first = [bisect.bisect_left(rooms, e) for e in range(top + 1)]
    below = [bisect.bisect_left(rooms, s - 1) for s in sizes.sizes]
    left = [0] * (len(rooms) + 1)
    for b, s in zip(below, sizes.sizes):
        left[b] += s

    def slacks() -> list[int]:
        """Per room, the nodes still to place above it minus the alive tuples above it."""
        nodes = list(itertools.accumulate(reversed(left)))[-2::-1]
        return [nodes[j] - excluded[r][hsize] for j, r in enumerate(rooms)]

    slack = slacks()
    if min(slack, default=0) < 0:
        raise GraphabilityError(
            "degree tuples could not be matched to the flow-dictated communities"
        )
    # a lower bound on the smallest slack: a pick lowers each by at most one
    spare = min(slack, default=n)
    variates = rng.beta(shape.alpha, shape.beta, size=survivors).tolist() if survivors else []
    picks = []
    for j, c in enumerate(community[order].tolist()):
        ex = excluded.get(sizes.sizes[c] - 1)
        count = alive[size] - (0 if ex is None else ex[hsize])
        if j < survivors:
            idx = min(int(variates[j] * count), count - 1)
        else:
            idx = int(rng.integers(count))
        rank = idx
        while True:
            pick = _select(alive, size, rank)
            if ex is None:
                break
            fixed = idx + _prefix(ex, bisect.bisect_right(high, pick))
            if fixed == rank:
                break
            rank = fixed
        e = e_of[pick]
        if spare:
            spare -= 1
        else:
            slack = slacks()
            spare = max(min(slack) - 1, 0)
            a, b = first[e], below[c]
            if 0 in slack[a:b]:
                z = b - 1 - slack[a:b][::-1].index(0)
                within = excluded[rooms[z]]
                sub = within[hsize] - (0 if ex is None else ex[hsize])
                if j < survivors:
                    idx = min(int(variates[j] * sub), sub - 1)
                else:
                    idx = idx * sub // count
                h = _select_minus(within, ex or [0] * (hsize + 1), hsize, idx)
                pick = high[h]
                e = e_of[pick]
        left[below[c]] -= 1
        for i in paths[pick]:
            alive[i] -= 1
        if e > low:
            at = hpaths[bisect.bisect_left(high, pick)]
            for r in rooms[: first[e]]:
                counts = excluded[r]
                for i in at:
                    counts[i] -= 1
        picks.append(pick)
    return ids[order], community[order], tuples[picks, 0], tuples[picks, 1]


def repair_intra_parity(ids, community, degree, intra, sizes: CommunitySpec):
    """Make every community's intra degree sum even by swapping degree tuples.

    Takes ``assign_nodes``' int64 columns ``(ids, community, degree,
    intra)`` in placement order and returns them in that order, with new
    ``degree`` and ``intra`` columns where a swap was made.  A swap
    exchanges the (d, e) entries of two nodes in different odd-parity
    communities with different intra parity.  The odd communities pair off
    in index order, each with the first later one that admits a swap.  For
    a pair, one scan takes the first fitting swap: for each node of the
    second community in id order, the equal total degree nodes of the first
    in placement order (they also preserve per-community degree sums), and
    only then, for each node of the second in id order, every node of the
    first in id order.  For deterministic splits the intra degree is a
    function of the total degree, so equal-degree pairs cannot differ in
    parity and only the second half of the scan can fit.  Community sizes
    and the global tuple multiset stay intact either way; raises
    ``GraphabilityError`` when no swap sequence exists.
    """
    k = len(sizes)
    odd = np.flatnonzero(np.bincount(community[intra % 2 == 1], minlength=k) % 2).tolist()
    if not odd:
        return ids, community, degree, intra
    if len(odd) % 2 == 1:
        raise GraphabilityError("odd number of odd-parity communities; global parity broken")

    # each community's positions in placement order; a swap moves no node,
    # and both of its communities leave ``odd`` with it, so the columns read
    # below are still the placed ones
    nid, d, e = ids.tolist(), degree.tolist(), intra.tolist()
    members: list[list[int]] = [[] for _ in range(k)]
    for p, c in enumerate(community.tolist()):
        members[c].append(p)

    def find_swap(c1: int, c2: int):
        s1, s2 = sizes.sizes[c1], sizes.sizes[c2]
        by_degree: dict[int, list[int]] = defaultdict(list)
        for p in members[c1]:
            by_degree[d[p]].append(p)
        ps1, ps2 = (sorted(members[c], key=nid.__getitem__) for c in (c1, c2))
        pairs = itertools.chain(
            ((p1, p2) for p2 in ps2 for p1 in by_degree.get(d[p2], ())),
            ((p1, p2) for p2 in ps2 for p1 in ps1),
        )
        for p1, p2 in pairs:
            if (e[p1] ^ e[p2]) & 1 and e[p1] <= s2 - 1 and e[p2] <= s1 - 1:
                return p1, p2
        return None

    while odd:
        c1 = odd.pop(0)
        for pos, c2 in enumerate(odd):
            pair = find_swap(c1, c2)
            if pair:
                p1, p2 = pair
                d[p1], d[p2] = d[p2], d[p1]
                e[p1], e[p2] = e[p2], e[p1]
                odd.pop(pos)
                break
        else:
            raise GraphabilityError(
                f"community {c1}: no parity-fixing tuple swap with any other odd community"
            )
    return ids, community, np.array(d, dtype=np.int64), np.array(e, dtype=np.int64)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


# temponet_fill's return codes and the slots of its state array, as in _fill.c
_DONE, _BLOCK, _REPAIR, _UNPAIRED, _BROKEN = range(5)
_PHASE, _NODE, _USED, _READ, _QUEUED, _PICK_W, _PICK_V = range(7)


def _pair(phases, bounds, degree, comm, off, rem, cnt, nbr, heap, queued, tree, owns, variates, st):
    """``temponet_fill`` of ``_fill.c`` ported to Python, for where no build of it loads.

    It takes the kernel's arguments as lists, ``owns`` as one list per
    community (``comm`` and ``owns`` are None in intra mode), changes them as
    the kernel changes its arrays, and returns the kernel's status wherever
    the kernel does, so a call resumes where the last one returned and
    ``_fill`` drives both loops alike.  Only the means differ: the heap
    holds (-degree, position) pairs for ``heapq``, and each tree update
    walks the cells that ``_paths`` lists for the position.
    """

    def update(q: int, d: int) -> None:
        """Add d at position q to the tree and, in inter mode, to q's community tree."""
        for i in paths[q - lo]:
            tree[i] += d
        if owns is not None:
            own = owns[comm[q]]
            for i in paths[q - lo]:
                own[i] += d

    # the variates used live in a local while the loop runs
    used, read = st[_USED], st[_READ]
    try:
        while st[_PHASE] < phases:
            lo, hi = bounds[st[_PHASE]], bounds[st[_PHASE] + 1]
            size = 1 << max(hi - lo - 1, 0).bit_length()
            steps = [size >> b for b in range(1, size.bit_length())]  # size / 2, ..., 1
            paths = _paths(size)
            if st[_QUEUED] < 0:
                tree[: size + 1] = _fenwick(rem[lo:hi] + [0] * (size - hi + lo))
                heap[:] = [(-degree[q], q) for q in range(lo, hi) if rem[q]]
                heapq.heapify(heap)
                st[_QUEUED] = len(heap)
                for _, q in heap:
                    queued[q] = 1
                    if owns is not None:
                        own = owns[comm[q]]
                        for i in paths[q - lo]:
                            own[i] += rem[q]
            while True:
                p = st[_NODE]
                if p < 0:
                    if not heap:
                        break
                    p = heapq.heappop(heap)[1]
                    st[_QUEUED] -= 1
                    queued[p] = 0
                    if not rem[p]:
                        continue
                    st[_NODE] = p
                    # ban p and its neighbours
                    for q in [p, *nbr[off[p] : off[p] + cnt[p]]]:
                        if rem[q]:
                            update(q, -rem[q])
                elif st[_PICK_W] >= 0:
                    # break (w, v) and link p to w, which stays saturated
                    w, v = st[_PICK_W], st[_PICK_V]
                    st[_PICK_W] = -1
                    for a, b in ((w, v), (v, w)):
                        i = nbr.index(b, off[a], off[a] + cnt[a])
                        cnt[a] -= 1
                        nbr[i] = nbr[off[a] + cnt[a]]
                    for a, b in ((p, w), (w, p)):
                        nbr[off[a] + cnt[a]] = b
                        cnt[a] += 1
                    rem[p] -= 1
                    rem[v] += 1
                    if not queued[v]:
                        queued[v] = 1
                        heapq.heappush(heap, (-degree[v], v))
                        st[_QUEUED] += 1
                    if v not in nbr[off[p] : off[p] + cnt[p]]:
                        update(v, 1)
                own = None if owns is None else owns[comm[p]]
                while rem[p]:
                    total = tree[size] if own is None else tree[size] - own[size]
                    if not total:
                        return _REPAIR
                    if used == read:
                        return _BLOCK
                    rank = int(variates[used] * total)
                    used += 1
                    if rank >= total:
                        rank = total - 1
                    q = 0
                    if own is None:
                        for step in steps:
                            w = tree[q + step]
                            if w <= rank:
                                q += step
                                rank -= w
                    else:
                        for step in steps:
                            w = tree[q + step] - own[q + step]
                            if w <= rank:
                                q += step
                                rank -= w
                    # a draw lands on a position of positive weight, never
                    # on p, which is banned
                    q += lo
                    if q >= hi or q == p or rem[q] <= 0:
                        return _BROKEN
                    # ban the partner at q and close one of its stubs; this is
                    # update(q, -w) written out, as it runs once per draw
                    w = rem[q]
                    if owns is None:
                        for i in paths[q - lo]:
                            tree[i] -= w
                    else:
                        own_q = owns[comm[q]]
                        for i in paths[q - lo]:
                            tree[i] -= w
                            own_q[i] -= w
                    rem[q] = w - 1
                    rem[p] -= 1
                    nbr[off[p] + cnt[p]] = q
                    nbr[off[q] + cnt[q]] = p
                    cnt[p] += 1
                    cnt[q] += 1
                # unban: partners and neighbours get their open stubs back
                for q in nbr[off[p] : off[p] + cnt[p]]:
                    if rem[q]:
                        update(q, rem[q])
                st[_NODE] = -1
            if any(rem[lo:hi]):
                return _UNPAIRED
            st[_PHASE] += 1
            st[_QUEUED] = -1
        return _DONE
    finally:
        st[_USED] = used


def wire_intra(
    ids, degree, stubs, community, pairing_shape: ShapeParams, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Wire every community's intra links; node i has int64 column entries
    ``ids[i]``, total ``degree[i]``, intra ``stubs[i]`` and ``community[i]``.

    Each community is a wiring phase of its own, with its own Fenwick tree,
    and the phases run in community index order on ``rng``.  One lexsort
    groups the members and orders each community by (total degree, id).
    Returns the (m, 2) int64 link rows (u, v), u < v, in no fixed order, and
    the repairs used.  Every member's realized intra degree equals its stubs
    exactly; each community's intra sequence must pass the Erdos-Gallai test
    beforehand.  A community with an odd intra sum raises ``WiringError``
    once the communities before it are wired.  Columns of unequal length or
    a repeated id raise ``ConfigurationError`` before any draw.
    """
    _check_columns(ids, degree, stubs, community)
    order = np.lexsort((ids, degree, community))
    community = community[order]
    cuts = np.flatnonzero(community[1:] != community[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [community.size]))
    return _wire(ids[order], degree[order], stubs[order], bounds, pairing_shape, rng)


def wire_inter(
    ids, degree, stubs, community, pairing_shape: ShapeParams, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Wire all inter-community links; the columns are ``wire_intra``'s, with inter ``stubs``.

    All nodes form one phase, with positions in (total degree, id) order;
    partners always live in different communities, so no inter link can
    duplicate an intra link.  ``np.unique`` maps the community labels to
    indices 0, 1, ..., which the fill loop only compares and indexes by.
    Returns the (m, 2) int64 link rows (u, v), u < v, and the repairs used.
    """
    _check_columns(ids, degree, stubs, community)
    order = np.lexsort((ids, degree))
    comm = np.unique(community[order], return_inverse=True)[1].astype(np.int64)
    bounds = np.array([0, ids.size])
    return _wire(ids[order], degree[order], stubs[order], bounds, pairing_shape, rng, comm)


def _check_columns(ids, *columns) -> None:
    """Refuse node columns that differ in length, or ids that repeat."""
    if any(len(column) != len(ids) for column in columns):
        raise ConfigurationError("the node columns differ in length")
    ordered = np.sort(ids)
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeated.size:
        raise ConfigurationError(f"node id {ordered[repeated[0]]} repeats")


def _wire(node, degree, stubs, bounds, shape, rng, comm=None) -> tuple[np.ndarray, int]:
    """Wire the phases of positions ``bounds[f]`` to ``bounds[f + 1] - 1`` in order.

    Phases before the first one with a negative stub count or an odd stub
    sum are wired, and then that one raises ``WiringError``.
    """
    if not node.size:
        return np.zeros((0, 2), dtype=np.int64), 0
    degree, stubs = degree.astype(np.int64), stubs.astype(np.int64)
    low = np.minimum.reduceat(stubs, bounds[:-1])
    bad = np.flatnonzero((low < 0) | (np.add.reduceat(stubs, bounds[:-1]) % 2 == 1))
    wired = bounds[: int(bad[0]) + 1] if bad.size else bounds
    partner, repairs = _fill(node, degree, stubs, wired, shape, rng, comm)
    if bad.size:
        f = int(bad[0])
        if low[f] < 0:
            q = bounds[f] + int(stubs[bounds[f] : bounds[f + 1]].argmin())
            raise WiringError(f"node {node[q]}: negative stub count ({low[f]})")
        raise WiringError("odd number of stubs in a wiring phase")
    # position q has stubs[q] partners, in position order
    uv = np.stack((np.repeat(node, stubs), node[partner]), axis=1)
    return uv[uv[:, 0] < uv[:, 1]], repairs


# ---------------------------------------------------------------------------
# the fill loop: the compiled kernel, and its one driver
# ---------------------------------------------------------------------------

_FILL_SOURCE = Path(__file__).with_name("_fill.c")


def _library_path() -> Path:
    """Where the build of this ``_fill.c`` for this platform is cached:
    ``$XDG_CACHE_HOME/temponet``, else ``~/.cache/temponet``, in a file
    named by the platform and the source's sha256."""
    digest = hashlib.sha256(_FILL_SOURCE.read_bytes()).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(cache) / "temponet" / f"fill-{sys.platform}-{platform.machine()}-{digest}.so"


def _compile(library: Path) -> None:
    """Build ``_fill.c`` with the system C compiler into ``library``.

    The compiler writes a temporary file in the cache, which gets the
    sha256 of its bytes appended (the loader ignores bytes past the ELF
    image) and then replaces ``library`` at once, so no process loads a
    half-written build.  Plain ``-O2``, without ``-ffast-math``: a rank must
    truncate as ``int()`` does.
    """
    import subprocess  # at first use only, so that importing temponet stays as fast

    library.parent.mkdir(parents=True, exist_ok=True)
    fd, temporary = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(fd)
    try:
        command = ["cc", "-O2", "-shared", "-fPIC", "-o", temporary, str(_FILL_SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"cc exited with status {done.returncode}: {done.stderr.strip()}")
        built = Path(temporary).read_bytes()
        Path(temporary).write_bytes(built + hashlib.sha256(built).digest())
        os.replace(temporary, library)
    finally:
        Path(temporary).unlink(missing_ok=True)


@functools.cache
def _kernel():
    """The compiled kernel of ``_fill.c``, built at the first wiring or
    export call of a process, or None where no build loads.

    The library's ``temponet_fill`` (wiring, see ``_fill``) and
    ``temponet_format`` (export, see ``output._write_block``) come with
    their argument types set.  A cached build whose bytes match the sha256
    at its end is loaded without compiling; any other, such as a truncated
    file, which could crash the process that maps it, is built again.
    Where that fails (no compiler, a cache that cannot be written), wiring
    runs ``_pair``, the export runs a bytes ``%`` format per block, and one
    WARNING says why.
    """
    try:
        library = _library_path()
        data = library.read_bytes() if library.exists() else b""
        if hashlib.sha256(data[:-32]).digest() != data[-32:]:
            _compile(library)
        kernel = ctypes.CDLL(str(library))
        fill, format_ = kernel.temponet_fill, kernel.temponet_format
    except (OSError, AttributeError, RuntimeError) as exc:
        log.warning(
            "wiring runs the Python fill loop and export a bytes %% format:"
            " the compiled kernel is unavailable (%s)",
            exc,
        )
        return None
    fill.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 13
    fill.restype = ctypes.c_int64
    format_.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
    format_.restype = ctypes.c_int64
    return kernel


def _address(array: np.ndarray | None, length: int, dtype=np.int64) -> int | None:
    """The data pointer of ``array``, or None for no array, checked to be
    ``length`` C-contiguous ``dtype`` entries, as the kernel reads it."""
    if array is None:
        return None
    if array.dtype != dtype or not array.flags.c_contiguous or array.size != length:
        raise AssertionError(f"a fill kernel array is not {length} C-contiguous {dtype} entries")
    return array.ctypes.data


def _fill(node, degree, stubs, bounds, shape, rng, comm) -> tuple[np.ndarray, int]:
    """Wire ``_wire``'s phases through the fill loop: ``_kernel()`` where it loads, else ``_pair``.

    Returns the partner positions, ``stubs[q]`` of them for each position q
    in order, and the repairs used.  This driver allocates the loop's state
    once and hands the kernel its arrays, or ``_pair`` lists copied from
    them.  It alone calls the generator, picks repairs, checks the repair
    budget and raises, so both loops make the same draws, links, repairs and
    errors and leave the generator in the same state.

    Block rule: a draw closes two stubs and a repair none, so a phase has
    ``sum(rem) / 2`` draws left at any time.  The loop returns for a block
    of their Beta variates, at most ``VARIATE_BLOCK`` of them, when it has
    used the last one; as ``Generator.beta(a, b, size=k)`` yields the
    variates of k single calls, the blocks make the draws of one call per
    draw.  A repair's ``rng.integers`` calls must come after the variates
    used so far, so the generator state from before each block is kept.
    When p has open stubs and no eligible weight, the loop returns for a
    repair: the driver restores that state and redraws the block's used
    variates.  Then one call picks w among the candidates, the eligible
    partners of p with all stubs taken, in position order, and one picks v
    among w's neighbours in id order; the loop breaks (w, v) and links p to
    w as it resumes, after the driver has checked the budget of
    ``REPAIR_BUDGET_FACTOR`` repairs per node of the phase and read the
    next block.  Every exit, a ``WiringError`` included, thus leaves the
    generator where one ``rng.beta`` call per draw would, and a repair
    costs at most one block of extra variates.
    """
    m, end, phases = node.size, bounds[-1], len(bounds) - 1
    off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(stubs, out=off[1:])
    longest = int(np.diff(bounds).max(initial=1))
    size = 1 << (longest - 1).bit_length()
    rem, cnt, nbr = stubs.copy(), np.zeros(m, dtype=np.int64), np.zeros(off[end], dtype=np.int64)
    k = 0 if comm is None else int(comm.max()) + 1
    owns = None if comm is None else np.zeros(k * (size + 1), dtype=np.int64)
    st = np.array([0, -1, 0, 0, -1, -1, -1], dtype=np.int64)
    heap, queued = np.zeros(longest, dtype=np.int64), np.zeros(m, dtype=np.int64)
    tree = np.zeros(size + 1, dtype=np.int64)
    buffers = [bounds, degree, comm, off, rem, cnt, nbr, heap, queued, tree, owns]
    kernel = _kernel()
    if kernel is None:
        # the same buffers as lists, owns as one zeroed list per community
        lists = [None if array is None else array.tolist() for array in buffers[:-1]]
        lists.append(None if owns is None else [[0] * (size + 1) for _ in range(k)])
        bounds, _, _, off, rem, cnt, nbr = lists[:7]  # the driver reads these copies
        sum_of = sum
        st = st.tolist()

        def fill(variates: np.ndarray) -> int:
            return _pair(phases, *lists, variates.tolist(), st)

    else:
        # every buffer stays referenced here until the last call returns
        lengths = [len(bounds), m, m, m + 1, m, m, off[end], longest, m, size + 1, k * (size + 1)]
        pointers = [_address(array, length) for array, length in zip(buffers, lengths)]
        # a Python sum would walk an int64 array element by element
        sum_of = np.add.reduce
        compiled = kernel.temponet_fill

        def fill(variates: np.ndarray) -> int:
            at = _address(variates, variates.size, np.float64)
            return compiled(phases, *pointers, at, _address(st, st.size))

    alpha, beta = shape.alpha, shape.beta
    bitgen = rng.bit_generator
    repairs = [0] * phases

    def read() -> None:
        """Read the next block of the phase's variates, one per draw left."""
        nonlocal state, variates
        lo, hi = bounds[st[_PHASE]], bounds[st[_PHASE] + 1]
        state = bitgen.state
        left = int(sum_of(rem[lo:hi])) // 2
        variates = rng.beta(alpha, beta, size=min(VARIATE_BLOCK, left))
        st[_USED], st[_READ] = 0, variates.size

    # the loop asks for each phase's first block as it first draws
    state, variates = bitgen.state, np.empty(0)
    while True:
        status = fill(variates)
        if status == _DONE:
            return np.asarray(nbr, dtype=np.int64), sum(repairs)
        if status == _BLOCK:
            read()
            continue
        bitgen.state = state  # replay: one Beta call per draw so far
        rng.beta(alpha, beta, size=int(st[_USED]))
        if status == _UNPAIRED:
            raise WiringError("stubs left unpaired after the wiring loop")
        if status != _REPAIR:
            raise AssertionError("the fill loop drew a position of no weight")
        f, p = int(st[_PHASE]), int(st[_NODE])
        lo, hi = bounds[f], bounds[f + 1]
        mask = (np.asarray(rem[lo:hi]) == 0) & (stubs[lo:hi] > 0)
        mask[np.asarray(nbr[off[p] : off[p] + cnt[p]], dtype=np.int64) - lo] = False
        if comm is not None:
            mask &= comm[lo:hi] != comm[p]
        cands = mask.nonzero()[0]
        if not cands.size:
            raise WiringError(
                f"node {node[p]}: no candidate links to rewire ({rem[p]} stubs left)"
            )
        w = lo + int(cands[int(rng.integers(cands.size))])
        neighbours = np.asarray(nbr[off[w] : off[w] + cnt[w]], dtype=np.int64)
        v = int(neighbours[np.argsort(node[neighbours])[int(rng.integers(neighbours.size))]])
        repairs[f] += 1
        budget = REPAIR_BUDGET_FACTOR * (hi - lo)
        if repairs[f] > budget:
            raise WiringError(f"wiring repair budget ({budget}) exhausted")
        st[_PICK_W], st[_PICK_V] = w, v
        read()


def check_connectivity(
    ids: np.ndarray, community: np.ndarray, endpoints: np.ndarray, community_count: int
) -> np.ndarray:
    """Number of connected components of each community's subgraph.

    ``ids`` are the snapshot's strictly ascending node ids and ``community``
    their community indices; ``endpoints`` holds (m, 2) int64 link rows.
    Only rows that join two nodes of one community count, so the whole link
    set or just its intra links give the same result.  Each node starts as
    its own root.  A round lowers both endpoint roots of every link to the
    smaller of the two, and pointer jumping then points every node at its
    root; once no link joins two roots, each root is one component of its
    node's community.  Returns ``community_count`` counts; an empty
    community has 0 components.  Ids that do not strictly ascend, a
    ``community`` column of another length than ``ids``, a negative
    ``community_count`` and a community index outside
    ``[0, community_count)`` raise ``ConfigurationError``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    _check_ascending(ids)
    community = np.asarray(community, dtype=np.int64)
    n = ids.size
    if community.shape != (n,):
        raise ConfigurationError(f"{community.size} community indices for {n} node ids")
    if community_count < 0:
        raise ConfigurationError(f"community count {community_count} is negative")
    if n and not 0 <= community.min() <= community.max() < community_count:
        raise ConfigurationError(
            f"community indices {community.min()}..{community.max()}"
            f" outside [0, {community_count})"
        )
    at, known = _lookup(ids, endpoints)
    u, v = at[known[:, 0] & known[:, 1]].T
    same = community[u] == community[v]
    u, v = u[same], v[same]
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        across = lu != lv
        if not across.any():
            roots = label == np.arange(n)
            return np.bincount(community[roots], minlength=community_count)
        lu, lv = lu[across], lv[across]
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


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
    ids=None,
    community=None,
    prev_degree=None,
) -> Snapshot:
    """Build one snapshot: assign, repair parity, gate, wire, and validate.

    ``ids``, ``community`` and ``prev_degree`` are ``assign_nodes``'
    temporal columns; without ``ids`` the snapshot bootstraps.  Placement
    and parity repair keep the columns in placement order; one argsort by
    id then orders them for the gate, the wiring and the ``Snapshot``.  The
    full post-assignment graphability check runs before any wiring.  A
    placement pass that parity repair or the gate rejects is redrawn, and
    ``GraphabilityError`` ends the snapshot after ``ASSIGNMENT_ATTEMPTS``
    rejected passes.  Placement itself fails only when no placement exists,
    before it draws, so that error ends the snapshot at once.
    """
    pairing_shape = pairing_shape or ShapeParams()
    failures: list[str] = []
    while len(failures) < ASSIGNMENT_ATTEMPTS:
        try:
            placed = assign_nodes(
                sizes,
                spec,
                rng,
                ids=ids,
                community=community,
                temporal_shape=temporal_shape,
                prev_degree=prev_degree,
            )
        except GraphabilityError as exc:
            raise GraphabilityError(f"timestep {t}: {exc}") from exc
        try:
            placed = repair_intra_parity(*placed, sizes)
        except GraphabilityError as exc:
            failures.append(str(exc))
            continue
        by_id = np.argsort(placed[0])
        node_ids, member, degree, intra_degree = (column[by_id] for column in placed)
        report = check_graphable(sizes, SimpleNamespace(total=degree, intra=intra_degree), member)
        if report.ok:
            break
        failures.append(report.reason)
    else:
        raise GraphabilityError.exhausted(t, "assignment attempt", failures)

    intra_links, repairs = wire_intra(node_ids, degree, intra_degree, member, pairing_shape, rng)
    components = check_connectivity(node_ids, member, intra_links, len(sizes))
    disconnected = np.flatnonzero(components > 1).tolist()
    if disconnected:
        log.warning(
            "timestep %d: communities %s wired with multiple components", t, disconnected
        )

    inter_degree = degree - intra_degree
    inter_links, used = wire_inter(node_ids, degree, inter_degree, member, pairing_shape, rng)
    repairs += used

    snap = Snapshot(
        t=t,
        ids=node_ids,
        degree=degree,
        intra_degree=intra_degree,
        community=member,
        community_count=len(sizes),
        endpoints=np.concatenate((intra_links, inter_links)),
        wiring_repairs=repairs,
        disconnected_communities=disconnected,
    )
    snap.validate()
    return snap
