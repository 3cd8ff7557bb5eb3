"""Wiring one snapshot with the modified configuration model.

A small worked example: three communities of
sizes {4, 4, 2} with total degrees {4,4,4,3,3,3,3,2,2,2} and intra degrees
{3,3,3,2,2,2,2,1,1,1}.  The realized graph always matches the requested
degrees exactly, has no self-loops or duplicate links, and its 5 inter links
equal (sum(D) - sum(E)) / 2.
"""

from collections import Counter

import numpy as np

from temponet import (
    CommunitySpec,
    DegreeSpec,
    ShapeParams,
    assemble_snapshot,
    assortativity_coefficient,
    check_connectivity,
    modularity,
)

sizes = CommunitySpec((4, 4, 2))
spec = DegreeSpec((4, 4, 4, 3, 3, 3, 3, 2, 2, 2), (3, 3, 3, 2, 2, 2, 2, 1, 1, 1))

rng = np.random.default_rng(11)
snap = assemble_snapshot(0, sizes, spec, rng, pairing_shape=ShapeParams(1, 1))

print(f"{snap.node_count} nodes, {snap.link_count} links, {snap.community_count} communities")
for c, group in enumerate(snap.clustering):
    members = sorted(group)
    links = {(u, v) for u, v in snap.links
             if snap.nodes[u].community == c and snap.nodes[v].community == c}
    print(f"  community {c}: nodes {members}, {len(links)} intra links,"
          f" {check_connectivity(group, links)} component(s)")

inter = sorted(
    (u, v) for u, v in snap.links if snap.nodes[u].community != snap.nodes[v].community
)
print("inter links:", inter)

realized = Counter(nid for link in snap.links for nid in link)
print("\nrealized == requested degrees:", all(
    realized[nid] == node.degree for nid, node in snap.nodes.items()
))
print("assortativity:", round(assortativity_coefficient(snap), 4))
print("ground-truth modularity:", round(modularity(snap), 4))
print("wiring repairs used:", snap.wiring_repairs)
