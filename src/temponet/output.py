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
They are written in blocks of ``_BLOCK`` keys.  A block's text joins one
piece per run, chosen by whether the run is its key's first (the piece then
opens the row) and whether it is its key's last (the piece then closes the
field); numpy passes over the block's rows build the pieces' indices and the
integers that fill them.  The compiled kernel of ``_fill.c`` (see
``assembler._kernel``), built at the first wiring or export call of a
process, writes each block's text; where it does not load, one bytes ``%``
format call per block writes the same bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, assembler
from .assembler import _address, _pair_order
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


# keys (node ids or edges) per block, each block written by one format call
# from temporaries made per block.  In one process running three units of
# the perfbench inputs (seed 1, 2 cores), 4,096-key blocks raised churn's
# peak RSS by 0.5 MB over 1,024-key ones; 256-key blocks lowered neither
# workload's and wrote scale's edges.csv about 14% slower
_BLOCK = 1024

# the text of one run, indexed by 2 * (first run of its key) + (last run of
# its key); as bytes, since bytes format integers faster than str does
_EDGE_PIECES = (
    b"[%d,%d); ",
    b'[%d,%d)>"\n',
    b'%d,%d,Undirected,"<[%d,%d); ',
    b'%d,%d,Undirected,"<[%d,%d)>"\n',
)
# nodes.csv: community runs indexed as those of edges.csv, then lifetime
# runs at 4 + (last run of its key)
_NODE_PIECES = (
    b"[%d,%d,%d); ",
    b'[%d,%d,%d)>","<',
    b'%d,n%d,"<[%d,%d,%d); ',
    b'%d,n%d,"<[%d,%d,%d)>","<',
    b"[%d,%d); ",
    b'[%d,%d)>"\n',
)


def _table(pieces):
    """The table of ``pieces`` that ``_write_block`` reads: the pieces, their
    bytes joined, each piece's start in those bytes followed by their total
    length, each piece's count of ``%d``, and the longest piece's length."""
    start = np.cumsum([0, *map(len, pieces)], dtype=np.int64)
    directives = np.array([piece.count(b"%d") for piece in pieces], dtype=np.int64)
    return pieces, b"".join(pieces), start, directives, max(map(len, pieces))


_EDGE_TABLE = _table(_EDGE_PIECES)
_NODE_TABLE = _table(_NODE_PIECES)


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


def _blocks(key_start):
    """``(lo, hi)`` row bounds of each block of up to ``_BLOCK`` keys."""
    keys = np.append(np.flatnonzero(key_start), key_start.size)
    for k in range(0, keys.size - 1, _BLOCK):
        yield int(keys[k]), int(keys[min(k + _BLOCK, keys.size - 1)])


def _runs(t, key_start, run_start, lo, hi):
    """The runs of rows ``lo`` to ``hi - 1``, a whole number of keys.

    Rows are sorted by key, then by ``t``.  ``key_start`` marks the first row
    of each key and ``run_start`` the first row of each run; every key start
    starts a run.  Returns each run's first row, its segment ``[t0, t1)``
    from its first row's ``t`` to one past its last row's, and whether it is
    its key's first run and its key's last.
    """
    rows = np.flatnonzero(run_start[lo:hi]) + lo
    first = key_start[rows]
    last = np.append(first[1:], True)
    t1 = t[np.append(rows[1:], hi) - 1] + 1
    return rows, t[rows], t1, first, last


def _write_block(fh, table, code, values, keep) -> None:
    """Write the pieces of ``table`` named by ``code``, one per row of
    ``values``, filled with the row-major ``values`` that ``keep`` selects.

    The compiled ``temponet_format`` writes them into one buffer, whose
    filled part goes to ``fh`` uncopied; without the kernel, one bytes ``%``
    format call does.  Either writes the bytes of the other.
    """
    pieces, text, start, directives, longest = table
    flat = values[keep]
    kernel = assembler._kernel()  # looked up here, so that a test can patch the loader
    if kernel is None:
        template = b"".join(map(pieces.__getitem__, code.tolist()))
        fh.write(template % tuple(flat.tolist()))
        return
    # the kernel reads one value per %d; then each piece writes at most its
    # own length and each value at most the 20 bytes of -2**63
    count = int(directives[code].sum())
    if count != flat.size:
        raise AssertionError(f"{flat.size} values fill the {count} %d of a block")
    out = np.empty(code.size * longest + 20 * count, dtype=np.uint8)
    written = kernel.temponet_format(
        text,
        start.ctypes.data,
        _address(code, code.size),
        code.size,
        _address(flat, count),
        _address(out, out.size, np.uint8),
    )
    fh.write(out[:written])


def _write_nodes(snaps, path) -> None:
    """``nodes.csv`` from the (id, t)-sorted node ids and labels of ``snaps``,
    which is sorted by ``t``.

    A block's community runs and lifetime runs are merged into one sequence,
    each key's community runs before its lifetime runs, and written as rows
    ``(id, id, t0, t1, label)`` of which a community run keeps the ids only
    when it is its key's first run, and a lifetime run keeps ``t0, t1``.
    """
    nid = np.concatenate([s.ids for s in snaps])
    label = np.concatenate(
        [np.asarray(s.community_labels, dtype=np.int64)[s.community] for s in snaps]
    )
    t = np.repeat(np.array([s.t for s in snaps], dtype=np.int64), [s.node_count for s in snaps])
    order = np.argsort(nid, kind="stable")
    nid, t, label = nid[order], t[order], label[order]
    key = _changed(nid)
    life = _after_gap(t, key)
    comm = life | _changed(label)
    with open(path, "wb") as fh:
        fh.write(b"Id,Label,Communities,Interval\n")
        for lo, hi in _blocks(key):
            rc, c0, c1, cfirst, clast = _runs(t, key, comm, lo, hi)
            rl, l0, l1, _, llast = _runs(t, key, life, lo, hi)
            n = rc.size
            values = np.zeros((n + rl.size, 5), dtype=np.int64)
            values[:n, 0] = values[:n, 1] = nid[rc]
            values[:, 2] = np.concatenate((c0, l0))
            values[:, 3] = np.concatenate((c1, l1))
            values[:n, 4] = label[rc]
            keep = np.zeros(values.shape, dtype=bool)
            keep[:n, :2] = cfirst[:, None]
            keep[:, 2:4] = keep[:n, 4] = True
            code = np.concatenate((2 * cfirst + clast, 4 + llast))
            # each key's community runs, then its lifetime runs
            ordinal = np.cumsum(key[lo:hi])
            order = np.argsort(ordinal[np.concatenate((rc, rl)) - lo], kind="stable")
            _write_block(fh, _NODE_TABLE, code[order], values[order], keep[order])


def _write_edges(snaps, path) -> None:
    """``edges.csv`` from the (u, v, t)-sorted link endpoints of ``snaps``,
    which is sorted by ``t``."""
    u = np.concatenate([s.endpoints[:, 0] for s in snaps])
    v = np.concatenate([s.endpoints[:, 1] for s in snaps])
    t = np.repeat(np.array([s.t for s in snaps], dtype=np.int64), [s.link_count for s in snaps])
    order = _pair_order(u, v)
    # one column at a time, so at most one unsorted copy is alive beside the rest
    u = u[order]
    v = v[order]
    t = t[order]
    del order
    key = _changed(u, v)
    life = _after_gap(t, key)
    with open(path, "wb") as fh:
        fh.write(b"Source,Target,Type,Interval\n")
        for lo, hi in _blocks(key):
            rows, t0, t1, first, last = _runs(t, key, life, lo, hi)
            values = np.stack((u[rows], v[rows], t0, t1), axis=1)
            keep = np.ones(values.shape, dtype=bool)
            keep[:, :2] = first[:, None]
            _write_block(fh, _EDGE_TABLE, 2 * first + last, values, keep)


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


def _parse_interval(text: str, width: int, path, row: int) -> list[tuple[int, ...]]:
    """The segments of an interval field, each a tuple of ``width`` integers.

    Raises ``ConfigurationError`` naming the file, the row and the segment
    for a field not in ``<...>``, a segment not in ``[...)``, and a segment
    with another number of parts or a part that is not an integer.
    """
    body = text.strip()
    if not body.startswith("<") or not body.endswith(">"):
        raise ConfigurationError(f"{path} row {row}: bad interval syntax {text!r}")
    out = []
    for seg in body[1:-1].split(";"):
        seg = seg.strip()
        parts = seg[1:-1].split(",")
        try:
            if not seg.startswith("[") or not seg.endswith(")") or len(parts) != width:
                raise ValueError
            out.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ConfigurationError(f"{path} row {row}: bad interval segment {seg!r}") from None
    return out


def _rows(path, id_fields):
    """The rows of an exported CSV after its header, numbered from 1, with
    the ``id_fields`` parsed as integers.

    Raises ``ConfigurationError`` naming the file and the row for a row
    with fewer fields than the header and for an id that is not an integer.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for n, row in enumerate(reader, 1):
            if None in row.values():
                given = sum(value is not None for value in row.values())
                raise ConfigurationError(
                    f"{path} row {n}: {given} fields, the header names {len(reader.fieldnames)}"
                )
            ids = []
            for name in id_fields:
                try:
                    ids.append(int(row[name]))
                except ValueError:
                    raise ConfigurationError(
                        f"{path} row {n}: bad {name} {row[name]!r}"
                    ) from None
            yield n, row, ids


def read_temporal_csv(nodes_path, edges_path):
    """Parse the exported CSVs back into per-timestep node/community/edge maps.

    Returns ``(communities, edges)`` where ``communities[t]`` maps node id to
    community label and ``edges[t]`` is the set of node-id pairs alive at t.
    A malformed interval, a non-integer id and a row with fewer fields than
    the header raise ``ConfigurationError`` naming the file and the row (1
    for the first row after the header).
    """
    communities: dict[int, dict[int, int]] = {}
    edges: dict[int, set[tuple[int, int]]] = {}
    for n, row, (nid,) in _rows(nodes_path, ("Id",)):
        for a, b, label in _parse_interval(row["Communities"], 3, nodes_path, n):
            for t in range(a, b):
                communities.setdefault(t, {})[nid] = label
    for n, row, (u, v) in _rows(edges_path, ("Source", "Target")):
        for a, b in _parse_interval(row["Interval"], 2, edges_path, n):
            for t in range(a, b):
                edges.setdefault(t, set()).add((u, v))
    for t in communities:
        edges.setdefault(t, set())
    return communities, edges


def _contingency_lines(boundary: BoundaryReport) -> list[str]:
    """The flow table, every label and count right-aligned to one width.

    Each row is one ``%`` format call: its label and its int counts.
    """
    width = max(
        [len(lbl) for lbl in boundary.row_labels + boundary.col_labels] + [5]
    )
    head = " " * (width + 1) + " ".join(f"{lbl:>{width}}" for lbl in boundary.col_labels)
    lines = [head]
    for lbl, row in zip(boundary.row_labels, boundary.contingency):
        lines.append((f"%{width}s " + " ".join([f"%{width}d"] * len(row))) % (lbl, *row))
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
