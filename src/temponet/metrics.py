"""Snapshot and boundary metrics reported with every run."""

from __future__ import annotations

import math

import numpy as np

from .assembler import Snapshot, _lookup
from .errors import ConfigurationError


def _endpoint_index(snapshot: Snapshot) -> np.ndarray:
    """The node index of each link endpoint, shape (m, 2).

    Raises ``KeyError`` on a link to an id that no node holds.
    """
    at, known = _lookup(snapshot.ids, snapshot.endpoints)
    if not known.all():
        raise KeyError(int(snapshot.endpoints[~known][0]))
    return at


def assortativity_details(snapshot: Snapshot) -> tuple[float, bool]:
    """Newman degree assortativity and a flag for the degenerate (zero variance) case.

    The link (u, v) adds the pairs (d_u, d_v) and (d_v, d_u), link after link
    in the (u, v) order that ``Snapshot`` keeps its rows in, so the sums run
    in the order of a loop over the rows of ``endpoints``.
    """
    if not snapshot.link_count:
        raise ConfigurationError("assortativity needs at least one link")
    ends = snapshot.degree.astype(np.float64)[_endpoint_index(snapshot)]
    x = ends.ravel()
    y = ends[:, ::-1].ravel()
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    if var <= 1e-12:
        return 0.0, True
    cov = ((x - mean) * (y - mean)).mean()
    return float(cov / var), False


def temporal_degree_correlation_details(
    snap_t: Snapshot, snap_t1: Snapshot
) -> tuple[float, bool]:
    """Pearson correlation of degrees over nodes alive in both snapshots, plus flag."""
    common, at_t, at_t1 = np.intersect1d(
        snap_t.ids, snap_t1.ids, assume_unique=True, return_indices=True
    )
    if len(common) < 2:
        return 0.0, True
    a = snap_t.degree[at_t].astype(np.float64)
    b = snap_t1.degree[at_t1].astype(np.float64)
    va = ((a - a.mean()) ** 2).sum()
    vb = ((b - b.mean()) ** 2).sum()
    if va <= 1e-12 or vb <= 1e-12:
        return 0.0, True
    cov = ((a - a.mean()) * (b - b.mean())).sum()
    return float(cov / math.sqrt(va * vb)), False


def modularity(snapshot: Snapshot) -> float:
    """Newman-Girvan modularity of the ground-truth clustering (resolution 1).

    Per-community intra-link counts and degree sums come from ``bincount``
    over the link endpoints; the sum over communities runs in Python.
    """
    m = snapshot.link_count
    if m < 1:
        raise ConfigurationError("modularity needs at least one link")
    k = snapshot.community_count
    comm = snapshot.community[_endpoint_index(snapshot)]
    intra = np.bincount(comm[comm[:, 0] == comm[:, 1], 0], minlength=k).tolist()
    deg_sum = np.bincount(comm.ravel(), minlength=k).tolist()
    q = 0.0
    for c in range(k):
        q += intra[c] / m - (deg_sum[c] / (2.0 * m)) ** 2
    return q
