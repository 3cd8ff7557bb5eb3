"""How the Beta shape parameters steer assortativity and temporal correlation.

Partner stubs are drawn by sampling a position in the degree-ordered open
stub list through Beta(alpha, beta): mass near 1 links high-degree nodes
together (assortative), mass near 0 pairs hubs with leaves (dissortative),
and alpha = beta = 1 reduces to uniform configuration-model pairing.  The
same mechanism applied to degree re-assignment across timesteps controls how
strongly nodes keep their degree rank.
"""

import numpy as np

from temponet import (
    CommunitySpec,
    RunConfig,
    SamplerConfig,
    ShapeParams,
    assemble_snapshot,
    run,
    sample_degrees,
    split_degrees,
)
from temponet.metrics import assortativity_details

def one_community_snapshot(shape, seed, n=1000):
    rng = np.random.default_rng(seed)
    total = list(sample_degrees(SamplerConfig("uniform", 5, 30), n, rng))
    if sum(total) % 2:
        total[0] += 1
    spec = split_degrees(tuple(total), 1.0, "fixed", "nearest", rng)
    return assemble_snapshot(0, CommunitySpec((n,)), spec, rng, pairing_shape=shape)

print("pairing shape -> mean degree assortativity (5 seeds, n=1000):")
for alpha, beta in ((21, 1), (5, 1), (1, 1), (1, 5), (1, 21)):
    values = [
        assortativity_details(one_community_snapshot(ShapeParams(alpha, beta), s))[0]
        for s in range(5)
    ]
    print(f"  alpha={alpha:>2} beta={beta:>2}: {np.mean(values):+.3f}")

print("\ntemporal shape -> mean degree correlation over 10 boundaries:")
for alpha, beta in ((1, 1), (5, 1), (21, 1)):
    cfg = RunConfig(
        timesteps=11,
        seed=3,
        community_cfg=SamplerConfig("uniform", 250, 250),
        degree_cfg=SamplerConfig("uniform", 5, 30, mix_ratio=0.7),
        community_count=4,
        kills=0,
        temporal_shape=ShapeParams(alpha, beta),
    )
    series = run(cfg).report.temporal_correlation_series
    print(f"  alpha={alpha:>2} beta={beta:>2}: {np.mean(series):+.3f}")
