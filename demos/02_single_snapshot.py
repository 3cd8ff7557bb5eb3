"""Wiring one snapshot with the modified configuration model.

A small worked example: three communities of
sizes {4, 4, 2} with total degrees {4,4,4,3,3,3,3,2,2,2} and intra degrees
{3,3,3,2,2,2,2,1,1,1}.  The realized graph always matches the requested
degrees exactly, has no self-loops or duplicate links, and its 5 inter links
equal (sum(D) - sum(E)) / 2.
"""

import numpy as np

from temponet import (
    CommunitySpec,
    DegreeSpec,
    ShapeParams,
    assemble_snapshot,
    check_connectivity,
    modularity,
)
from temponet.metrics import assortativity_details

sizes = CommunitySpec((4, 4, 2))
spec = DegreeSpec((4, 4, 4, 3, 3, 3, 3, 2, 2, 2), (3, 3, 3, 2, 2, 2, 2, 1, 1, 1))

rng = np.random.default_rng(11)
snap = assemble_snapshot(0, sizes, spec, rng, pairing_shape=ShapeParams(1, 1))

print(f"{snap.node_count} nodes, {snap.link_count} links, {snap.community_count} communities")
# one (u, v) row per link; the node ids here are 0..9, so ids index the
# per-node columns
comm = snap.community
u, v = snap.endpoints.T
# components of every community at once; links between communities are ignored
components = check_connectivity(snap.ids, comm, snap.endpoints, snap.community_count)
for c in range(snap.community_count):
    members = snap.ids[comm == c].tolist()  # ids ascend, so members do too
    rows = snap.endpoints[(comm[u] == c) & (comm[v] == c)]
    print(f"  community {c}: nodes {members}, {len(rows)} intra links,"
          f" {components[c]} component(s)")

inter = sorted(map(tuple, snap.endpoints[comm[u] != comm[v]].tolist()))
print("inter links:", inter)

realized = np.bincount(snap.endpoints.ravel(), minlength=snap.node_count)
print("\nrealized == requested degrees:", np.array_equal(realized, snap.degree))
print("assortativity:", round(assortativity_details(snap)[0], 4))
print("ground-truth modularity:", round(modularity(snap), 4))
print("wiring repairs used:", snap.wiring_repairs)
