"""Run reports and the temporal CSV export.

CSV layout (golden-tested, loadable as a Gephi dynamic graph):

``nodes.csv`` has the header ``Id,Label,Communities,Interval``.  ``Interval``
is the node's lifetime as half-open segments ``<[start,end); ...>`` merged
into maximal runs; ``Communities`` lists one ``[start,end,label)`` segment
per maximal run of constant community label.  ``edges.csv`` has the header
``Source,Target,Type,Interval`` with ``Type`` always ``Undirected`` and the
same interval syntax.  Snapshot ``t`` covers ``[t, t+1)``.

Both files come from one sort of per-step id arrays: node ids with their
labels sorted by (id, t), link endpoints sorted by (u, v, t), with a run
starting wherever the key changes, ``t`` skips a step or the label changes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .lifecycle import EventRecord, render_event_table


@dataclass
class SnapshotMetrics:
    t: int
    nodes: int
    links: int
    communities: int
    assortativity: float
    assortativity_degenerate: bool
    modularity: float
    wiring_repairs: int
    disconnected_communities: list[int] = field(default_factory=list)


@dataclass
class BoundaryReport:
    t_from: int
    t_to: int
    vi: float
    contingency: list[list[int]]
    row_labels: list[str]
    col_labels: list[str]
    temporal_degree_correlation: float
    correlation_degenerate: bool
    deaths: int
    births: int
    seed_pool_vi: list[float]
    events: list[EventRecord] = field(default_factory=list)


@dataclass
class RunReport:
    seed: int
    config: dict
    snapshots: list[SnapshotMetrics] = field(default_factory=list)
    boundaries: list[BoundaryReport] = field(default_factory=list)

    @property
    def temporal_correlation_series(self) -> list[float]:
        return [b.temporal_degree_correlation for b in self.boundaries]


# keys (node ids or edges) formatted per write: small blocks keep few strings
# alive at once (4,096-key blocks raised the churn benchmark's peak RSS by
# about 0.6 MB), and the per-block numpy calls cost nothing measurable
_BLOCK = 256


def _changed(*columns) -> np.ndarray:
    """Mask of the rows where any column differs from the row before; row 0 is set."""
    mark = np.zeros(len(columns[0]), dtype=bool)
    mark[:1] = True
    for col in columns:
        mark[1:] |= col[1:] != col[:-1]
    return mark


def _after_gap(t, mark) -> np.ndarray:
    """``mark`` plus every row whose ``t`` does not follow the row before by one."""
    out = mark.copy()
    out[1:] |= t[1:] != t[:-1] + 1
    return out


def _interval_blocks(t, key_start, run_start, label=None):
    """Yield ``(rows, texts)`` per block of up to ``_BLOCK`` keys.

    Rows are sorted by key, then by ``t``.  ``key_start`` marks the first row
    of each key and ``run_start`` the first row of each run; every key start
    starts a run.  A run is the segment ``[t0,t1)``, or ``[t0,t1,label)`` when
    ``label`` is given, from its first row's ``t`` to one past its last row's.
    ``rows`` holds the first row of each key in the block, ``texts`` its
    segments joined by ``"; "``.  Apart from ``keys``, every temporary is
    made per block, so none spans the whole file.
    """
    keys = np.append(np.flatnonzero(key_start), t.size)
    for k in range(0, keys.size - 1, _BLOCK):
        lo, hi = keys[k], keys[min(k + _BLOCK, keys.size - 1)]
        runs = np.flatnonzero(run_start[lo:hi])
        tb = t[lo:hi]
        first = tb[runs].tolist()
        end = (tb[np.append(runs, hi - lo)[1:] - 1] + 1).tolist()
        if label is None:
            segs = [f"[{x},{y})" for x, y in zip(first, end)]
        else:
            lab = label[lo:hi][runs].tolist()
            segs = [f"[{x},{y},{c})" for x, y, c in zip(first, end, lab)]
        cut = np.append(np.flatnonzero(key_start[lo:hi][runs]), runs.size).tolist()
        texts = [segs[i] if j - i == 1 else "; ".join(segs[i:j]) for i, j in zip(cut, cut[1:])]
        yield keys[k : k + len(texts)], texts


def _write_nodes(snaps, path) -> None:
    """``nodes.csv`` from the (id, t)-sorted node ids and labels of ``snaps``,
    which is sorted by ``t``."""
    nid = np.concatenate([s.ids for s in snaps])
    label = np.concatenate(
        [np.asarray(s.community_labels, dtype=np.int64)[s.community] for s in snaps]
    )
    t = np.repeat(np.array([s.t for s in snaps], dtype=np.int64), [s.node_count for s in snaps])
    order = np.argsort(nid, kind="stable")
    nid, t, label = nid[order], t[order], label[order]
    key = _changed(nid)
    life = _after_gap(t, key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("Id,Label,Communities,Interval\n")
        blocks = zip(
            _interval_blocks(t, key, life | _changed(label), label),
            _interval_blocks(t, key, life),
        )
        for (rows, comms), (_, lives) in blocks:
            fh.writelines(
                f'{i},n{i},"<{c}>","<{iv}>"\n'
                for i, c, iv in zip(nid[rows].tolist(), comms, lives)
            )


def _write_edges(snaps, path) -> None:
    """``edges.csv`` from the (u, v, t)-sorted link endpoints of ``snaps``,
    which is sorted by ``t``."""
    u = np.concatenate([s.endpoints[:, 0] for s in snaps])
    v = np.concatenate([s.endpoints[:, 1] for s in snaps])
    t = np.repeat(np.array([s.t for s in snaps], dtype=np.int64), [s.link_count for s in snaps])
    order = np.lexsort((v, u))
    # one column at a time, so at most one unsorted copy is alive beside the rest
    u = u[order]
    v = v[order]
    t = t[order]
    del order
    key = _changed(u, v)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("Source,Target,Type,Interval\n")
        for rows, lives in _interval_blocks(t, key, _after_gap(t, key)):
            fh.writelines(
                f'{a},{b},Undirected,"<{iv}>"\n'
                for a, b, iv in zip(u[rows].tolist(), v[rows].tolist(), lives)
            )


def export_temporal_csv(snapshots, outdir) -> tuple[str, str]:
    """Write ``nodes.csv`` and ``edges.csv`` for the snapshot sequence.

    Every interval field holds a comma and no field holds a quote or a
    newline, so exactly the interval fields are quoted, as ``csv.writer``
    would quote them.
    """
    if not snapshots:
        raise ConfigurationError("nothing to export: no snapshots")
    os.makedirs(outdir, exist_ok=True)
    snaps = sorted(snapshots, key=lambda s: s.t)
    nodes_path = os.path.join(outdir, "nodes.csv")
    _write_nodes(snaps, nodes_path)
    edges_path = os.path.join(outdir, "edges.csv")
    _write_edges(snaps, edges_path)
    return nodes_path, edges_path


def _parse_interval(text: str) -> list[tuple[int, int]]:
    body = text.strip()
    if not body.startswith("<") or not body.endswith(">"):
        raise ConfigurationError(f"bad interval syntax: {text!r}")
    out = []
    for seg in body[1:-1].split(";"):
        seg = seg.strip()
        if not seg.startswith("[") or not seg.endswith(")"):
            raise ConfigurationError(f"bad interval segment: {seg!r}")
        parts = seg[1:-1].split(",")
        out.append(tuple(int(p) for p in parts))
    return out


def read_temporal_csv(nodes_path, edges_path):
    """Parse the exported CSVs back into per-timestep node/community/edge maps.

    Returns ``(communities, edges)`` where ``communities[t]`` maps node id to
    community label and ``edges[t]`` is the set of node-id pairs alive at t.
    """
    communities: dict[int, dict[int, int]] = {}
    edges: dict[int, set[tuple[int, int]]] = {}
    with open(nodes_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            nid = int(row["Id"])
            for a, b, label in _parse_interval(row["Communities"]):
                for t in range(a, b):
                    communities.setdefault(t, {})[nid] = label
    with open(edges_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            u, v = int(row["Source"]), int(row["Target"])
            for a, b in _parse_interval(row["Interval"]):
                for t in range(a, b):
                    edges.setdefault(t, set()).add((u, v))
    for t in communities:
        edges.setdefault(t, set())
    return communities, edges


def _contingency_lines(boundary: BoundaryReport) -> list[str]:
    width = max(
        [len(lbl) for lbl in boundary.row_labels + boundary.col_labels] + [5]
    )
    head = " " * (width + 1) + " ".join(f"{lbl:>{width}}" for lbl in boundary.col_labels)
    lines = [head]
    for lbl, row in zip(boundary.row_labels, boundary.contingency):
        cells = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"{lbl:>{width}} {cells}")
    return lines


def render_report(report: RunReport) -> str:
    """Human-readable run report with every boundary's table, VI and events."""
    lines = [f"temporal network run (seed {report.seed})", ""]
    for sm in report.snapshots:
        flag = " (degenerate)" if sm.assortativity_degenerate else ""
        extra = (
            f" disconnected={sm.disconnected_communities}"
            if sm.disconnected_communities
            else ""
        )
        lines.append(
            f"T{sm.t}: nodes={sm.nodes} links={sm.links} communities={sm.communities}"
            f" assortativity={sm.assortativity:+.4f}{flag}"
            f" modularity={sm.modularity:.4f} repairs={sm.wiring_repairs}{extra}"
        )
    for b in report.boundaries:
        lines.append("")
        lines.append(f"== boundary T{b.t_from} -> T{b.t_to} ==")
        lines.append(
            f"VI={b.vi:.6f} deaths={b.deaths} births={b.births}"
            f" temporal_degree_correlation={b.temporal_degree_correlation:+.4f}"
            + (" (degenerate)" if b.correlation_degenerate else "")
        )
        pool = " ".join(f"{v:.4f}" for v in b.seed_pool_vi)
        lines.append(f"seed pool VI: [{pool}]")
        lines.append(f"contingency (rows: T{b.t_from}, cols: T{b.t_to}):")
        lines.extend(_contingency_lines(b))
        lines.append("")
        lines.append(
            render_event_table(
                b.events,
                b.t_from,
                labels_t=b.row_labels,
                labels_t1=b.col_labels,
            )
        )
    return "\n".join(lines) + "\n"


def _fields(record) -> dict:
    """A report dataclass as a dict of its fields, values shared, not copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def write_report(report: RunReport, outdir) -> tuple[str, str]:
    """Write ``report.txt`` (human readable) and ``report.json`` (structured).

    ``report.json`` is one line of JSON with sorted keys, and also carries
    the package ``version`` that wrote it.
    """
    os.makedirs(outdir, exist_ok=True)
    txt_path = os.path.join(outdir, "report.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    json_path = os.path.join(outdir, "report.json")
    payload = _fields(report)
    payload["temporal_correlation_series"] = report.temporal_correlation_series
    payload["version"] = __version__
    # no indent: it would turn off the C encoder, which is several times faster
    text = json.dumps(payload, default=_fields, sort_keys=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return txt_path, json_path
