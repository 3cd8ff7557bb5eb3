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


def _continuation_kind(size_before: int, size_after: int, band: float) -> str:
    if size_after > size_before * (1.0 + band):
        return CONTINUES_GROWING
    if size_after < size_before * (1.0 - band):
        return CONTINUES_SHRINKING
    return CONTINUES


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


def render_event_table(
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
