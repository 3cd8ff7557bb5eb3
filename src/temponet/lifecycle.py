"""Community lifecycle events across a step boundary.

Events are classified from the realized contingency matrix with two
Jaccard-style thresholds: ``continuation`` for the similarity a counterpart
must reach to count as the same community, and ``share`` for the fraction of
a source community that must land in a target before it qualifies for
split/merge bookkeeping.  A community may carry several events at once
(e.g. split into two targets while also merging into one of them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

END_OF_T = "end_of_t"
START_OF_T1 = "start_of_t1"

CONTINUES = "continues"
CONTINUES_GROWING = "continues_growing"
CONTINUES_SHRINKING = "continues_shrinking"
SPLIT_INTO = "split_into"
SPLIT_FROM = "split_from"
MERGED_INTO = "merged_into"
MERGED_FROM = "merged_from"
BORN = "born"
DEAD = "dead"


@dataclass
class LifecycleThresholds:
    continuation: float = 0.3
    share: float = 0.1
    size_dead_band: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.continuation < 1.0:
            raise ConfigurationError("continuation threshold must lie in (0, 1)")
        if not 0.0 < self.share < 1.0:
            raise ConfigurationError("share threshold must lie in (0, 1)")
        if self.size_dead_band < 0:
            raise ConfigurationError("size dead band must be non-negative")


@dataclass
class EventRecord:
    side: str  # END_OF_T or START_OF_T1
    community: int
    event: str
    counterparts: tuple[int, ...] = ()


def jaccard(a, b) -> float:
    """|a & b| / |a | b|; two empty sets score 0."""
    a, b = set(a), set(b)
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def flow_jaccard(flow, birth_row: int | None = None, death_col: int | None = None) -> np.ndarray:
    """Jaccard index of every real (source, target) community pair, read off the flow.

    The flow counts the shared nodes, |a_i & b_j| = u_ij, and its marginals
    (birth row and death column included) are the community sizes, so
    |a_i | b_j| = row_i + col_j - u_ij.  Equals ``jaccard`` on the member sets,
    including 0 for two empty communities.
    """
    u = np.asarray(flow, dtype=np.int64)
    rows = [i for i in range(u.shape[0]) if i != birth_row]
    cols = [j for j in range(u.shape[1]) if j != death_col]
    inter = u[np.ix_(rows, cols)]
    union = u.sum(axis=1)[rows][:, None] + u.sum(axis=0)[cols][None, :] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)


def inherit_labels(jac: np.ndarray, labels_t, threshold: float, counter: int):
    """Carry community labels across the boundary by greedy Jaccard matching.

    Returns the t+1 labels and the next unused label; targets without a
    match above ``threshold`` take fresh labels from ``counter`` on.
    """
    k, l = jac.shape
    pairs = sorted(
        ((jac[i, j], i, j) for i in range(k) for j in range(l)),
        key=lambda p: (-p[0], p[1], p[2]),
    )
    labels1: list[int | None] = [None] * l
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


# per side: the event of a community the adjustment flow takes, then its split
# and merge events.  A split or merge is one record at its hub (the source that
# splits, the target that merges) listing every counterpart, and one record
# per hub on the other side.
_RULES = {
    END_OF_T: (DEAD, (SPLIT_INTO, True), (MERGED_INTO, False)),
    START_OF_T1: (BORN, (SPLIT_FROM, False), (MERGED_FROM, True)),
}

_TEXT = {
    (END_OF_T, CONTINUES): "Continues in {}",
    (END_OF_T, CONTINUES_GROWING): "Continues growing in {}",
    (END_OF_T, CONTINUES_SHRINKING): "Continues shrinking in {}",
    (END_OF_T, SPLIT_INTO): "Split into [{}]",
    (END_OF_T, MERGED_INTO): "Merged into {}",
    (END_OF_T, DEAD): "Dead",
    (START_OF_T1, CONTINUES): "Continued from {}",
    (START_OF_T1, CONTINUES_GROWING): "Continued growing from {}",
    (START_OF_T1, CONTINUES_SHRINKING): "Continued shrinking from {}",
    (START_OF_T1, SPLIT_FROM): "From split {}",
    (START_OF_T1, MERGED_FROM): "Merged from [{}]",
    (START_OF_T1, BORN): "Born",
}


def classify_events(
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

    A source qualifies for a target when at least ``share`` of the source
    flows there; a source with two or more qualifying targets splits, and a
    target with two or more qualifying sources merges.  Each community of
    either side then gets, in this order:

    * dead (source) or born (target) when at least ``1 - share`` of it is
      the death column or the birth row;
    * continues (growing/shrinking by the size dead band) with its
      highest-Jaccard counterpart when that Jaccard reaches ``continuation``;
    * its split and merge events (see ``_RULES``);
    * when none of these apply, the continuation toward its highest-Jaccard
      counterpart anyway, so that every community is accounted for.
    """
    th = thresholds or LifecycleThresholds()
    u = np.asarray(flow, dtype=np.int64)
    rows = [i for i in range(u.shape[0]) if i != birth_row]
    cols = [j for j in range(u.shape[1]) if j != death_col]
    sizes_t = u[rows].sum(axis=1)
    sizes_t1 = u[:, cols].sum(axis=0)
    died = u[rows, death_col] if death_col is not None else np.zeros_like(sizes_t)
    born = u[birth_row, cols] if birth_row is not None else np.zeros_like(sizes_t1)
    jac = flow_jaccard(u, birth_row, death_col)

    qualifying = u[np.ix_(rows, cols)] / np.maximum(sizes_t, 1)[:, None] >= th.share
    splits = qualifying & (qualifying.sum(axis=1) >= 2)[:, None]
    merges = qualifying & (qualifying.sum(axis=0) >= 2)[None, :]
    before, after = sizes_t[:, None], sizes_t1[None, :]
    kinds = np.where(
        after > before * (1.0 + th.size_dead_band),
        CONTINUES_GROWING,
        np.where(after < before * (1.0 - th.size_dead_band), CONTINUES_SHRINKING, CONTINUES),
    )
    return _side_events(END_OF_T, sizes_t, died, jac, kinds, splits, merges, th) + _side_events(
        START_OF_T1, sizes_t1, born, jac.T, kinds.T, splits.T, merges.T, th
    )


def _side_events(side, sizes, adjusted, jac, kinds, splits, merges, th) -> list[EventRecord]:
    """The records of one side; row ``x`` of each matrix is its community ``x``."""
    ended, *hub_events = _RULES[side]
    ends = (sizes > 0) & (adjusted >= (1.0 - th.share) * sizes)
    records: list[EventRecord] = []
    for x in range(len(sizes)):
        events = [EventRecord(side, x, ended)] if ends[x] else []
        if jac.shape[1]:
            best = int(np.argmax(jac[x]))
            continued = EventRecord(side, x, str(kinds[x, best]), (best,))
            if jac[x, best] >= th.continuation:
                events.append(continued)
        for (event, at_hub), pairs in zip(hub_events, (splits, merges)):
            others = tuple(int(y) for y in np.flatnonzero(pairs[x]))
            if at_hub and others:
                events.append(EventRecord(side, x, event, others))
            elif not at_hub:
                events.extend(EventRecord(side, x, event, (y,)) for y in others)
        if not events and jac.shape[1]:
            events.append(continued)
        records.extend(events)
    return records


def render_event_table(
    records,
    t: int,
    labels_t=None,
    labels_t1=None,
) -> str:
    """Two-section text table of the boundary events, one line per record."""
    labels = {END_OF_T: labels_t, START_OF_T1: labels_t1}

    def name(side: str, idx: int) -> str:
        return str(labels[side][idx]) if labels[side] is not None else str(idx)

    sections = []
    for side, other, when in (
        (END_OF_T, START_OF_T1, f"end of time T{t}"),
        (START_OF_T1, END_OF_T, f"beginning of time T{t + 1}"),
    ):
        lines = [f"Community | Event @ {when}", "-" * 40]
        for rec in records:
            if rec.side == side:
                text = _TEXT[side, rec.event].format(
                    ", ".join(name(other, c) for c in rec.counterparts)
                )
                lines.append(f"{name(side, rec.community):>9} | {text}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
