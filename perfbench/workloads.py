"""Workload inputs, the unit of work each workload repeats, and its output checks.

Inputs come only from the workload seed.  ``scale`` and ``churn`` draw every
timestep with temponet's public samplers, gate it with ``check_graphable``
and write a sequence file, so ``run()`` sees fixed inputs even when a later
change alters how the program consumes its RNG.  ``flow`` draws transition
systems the way the pipeline builds them.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from temponet import (
    CommunitySpec,
    RunConfig,
    SamplerConfig,
    TemponetError,
    check_graphable,
    dump_sequences,
    fix_parity,
    pipeline,
    read_temporal_csv,
    sample_degrees,
    sample_sizes,
    split_degrees,
)

DIGEST_FILES = ("nodes.csv", "edges.csv", "report.json")


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class RunSpec:
    """A pipeline workload: how to draw its sequences and run them."""

    communities: SamplerConfig
    degrees: SamplerConfig
    community_count: int
    steps: int  # timesteps per run() call
    kills: int  # random kills per boundary
    inputs: int  # distinct sequence files (independent runs with derived seeds)
    # community sizes drawn once per timestep from this fixed seed (and, with a
    # node_target, redrawn until the node count is within 1% of it), so that
    # every workload seed does the same amount of work
    sizes_seed: int | None = None
    node_target: int = 0


@dataclass(frozen=True)
class FlowSpec:
    """Transition systems: k, l real communities, half with a pinned death column."""

    instances: int
    max_communities: int
    min_size: int
    max_size: int


# acceptance-10 distributions at 8 communities (~1.6e3 nodes per step), so
# that a measuring window holds many runs; see README.md
SCALE = RunSpec(
    communities=SamplerConfig("power_law", 50, 800, param=1.5),
    degrees=SamplerConfig("power_law", 10, 150, param=2.5, mix_ratio=0.7),
    community_count=8,
    steps=2,
    kills=20,
    inputs=1,
    sizes_seed=1010,
    node_target=1600,
)
CHURN = RunSpec(
    communities=SamplerConfig("uniform", 8, 40),
    degrees=SamplerConfig("uniform", 3, 10, mix_ratio=0.8),
    community_count=60,
    steps=3,
    kills=90,
    inputs=4,
    sizes_seed=2020,
)
FLOW = FlowSpec(instances=600, max_communities=10, min_size=4, max_size=30)

TINY = {
    "scale": RunSpec(
        communities=SamplerConfig("power_law", 10, 40, param=1.5),
        degrees=SamplerConfig("power_law", 3, 12, param=2.5, mix_ratio=0.7),
        community_count=4,
        steps=2,
        kills=3,
        inputs=1,
        sizes_seed=1010,
        node_target=100,
    ),
    "churn": RunSpec(
        communities=SamplerConfig("uniform", 8, 20),
        degrees=SamplerConfig("uniform", 3, 6, mix_ratio=0.8),
        community_count=5,
        steps=3,
        kills=5,
        inputs=2,
        sizes_seed=2020,
    ),
    "flow": FlowSpec(instances=6, max_communities=4, min_size=3, max_size=10),
}
FULL = {"scale": SCALE, "churn": CHURN, "flow": FLOW}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _draw_sizes(spec: RunSpec, rng: np.random.Generator) -> CommunitySpec:
    while True:
        sizes = sample_sizes(spec.communities, spec.community_count, rng)
        if not spec.node_target or abs(sizes.node_count - spec.node_target) <= spec.node_target // 100:
            return sizes


def _draw_step(spec: RunSpec, rng: np.random.Generator, t: int):
    """One timestep drawn as the pipeline's sampler mode draws it, gated."""
    if spec.sizes_seed is None:
        sizes = sample_sizes(spec.communities, spec.community_count, rng)
    else:
        sizes = _draw_sizes(spec, np.random.default_rng([spec.sizes_seed, t]))
    deg = spec.degrees
    while True:
        total = sample_degrees(deg, sizes.node_count, rng)
        split = split_degrees(total, deg.mix_ratio, deg.mix_mode, deg.rounding, rng)
        split = fix_parity(split, rng, (deg.minimum, deg.maximum))
        if check_graphable(sizes, split).ok:
            return sizes, split


@dataclass
class RunInput:
    path: str
    run_seed: int


def prepare_runs(spec: RunSpec, seed: int, where: str) -> list[RunInput]:
    """Write one sequence file per independent run; each has a derived seed."""
    os.makedirs(where, exist_ok=True)
    out = []
    for idx in range(spec.inputs):
        rng = np.random.default_rng([seed, idx])
        steps = [_draw_step(spec, rng, t) for t in range(spec.steps)]
        path = os.path.join(where, f"seq{idx}.txt")
        dump_sequences(steps, path)
        out.append(RunInput(path, int(rng.integers(2**31))))
    return out


@dataclass
class FlowInput:
    sizes_from: tuple[int, ...]
    sizes_to: tuple[int, ...]
    lower: np.ndarray | None
    death_col: int | None


def prepare_flows(spec: FlowSpec, seed: int) -> list[FlowInput]:
    """Mid-size transition systems; every other one pins a kill set like the pipeline."""
    rng = np.random.default_rng([seed, 0xF10])
    out = []
    for idx in range(spec.instances):
        k = int(rng.integers(2, spec.max_communities + 1))
        l = int(rng.integers(2, spec.max_communities + 1))
        if idx % 2:
            n = int(rng.integers(max(k, l) + 1, k * spec.max_size + 1))
            a = 1 + rng.multinomial(n - k, np.ones(k) / k)
            b = 1 + rng.multinomial(n - l, np.ones(l) / l)
            out.append(FlowInput(tuple(map(int, a)), tuple(map(int, b)), None, None))
            continue
        sizes_t, sizes_t1 = (
            CommunitySpec(tuple(int(x) for x in rng.integers(spec.min_size, spec.max_size + 1, m)))
            for m in (k, l)
        )
        n = sizes_t.node_count  # node ids 0..n-1, laid out community by community
        kills = rng.choice(n, size=int(rng.integers(1, n // 5 + 2)), replace=False)
        plan = pipeline.plan_transition(sizes_t, sizes_t1, kills.tolist(), rng, alive_ids=range(n))
        lower = np.zeros((len(plan.sizes_from_augmented), len(plan.sizes_to_augmented)), np.int64)
        if plan.death_col is not None:
            bounds = np.cumsum(sizes_t.sizes)
            for nid in plan.kill_ids:
                lower[int(np.searchsorted(bounds, nid, side="right")), plan.death_col] += 1
        out.append(
            FlowInput(plan.sizes_from_augmented, plan.sizes_to_augmented, lower, plan.death_col)
        )
    return out


def input_digest(where: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(where)):
        with open(os.path.join(where, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def flow_digest(flows: list[FlowInput]) -> str:
    h = hashlib.sha256()
    for f in flows:
        h.update(repr((f.sizes_from, f.sizes_to, f.death_col)).encode())
        if f.lower is not None:
            h.update(f.lower.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# units of work
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one unit produced: wall seconds, steps made, and how it ended."""

    seconds: float
    steps: int = 0  # snapshots (scale, churn) or transitions (flow)
    attempted: int = 0
    failed: int = 0
    links: int = 0
    vis: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    out_bytes: int = 0
    csv_bytes: int = 0
    speed: float = 1.0  # PROBE_REF_S / probe seconds around this unit (run.py)


def run_pipeline(inp: RunInput, spec: RunSpec, outdir: str, check: bool) -> Outcome:
    """One ``run()`` call in sequence-file mode with CSV and report export on."""
    shutil.rmtree(outdir, ignore_errors=True)
    cfg = RunConfig(
        timesteps=spec.steps,
        seed=inp.run_seed,
        sequence_file=inp.path,
        kills=spec.kills,
        output_dir=outdir,
    )
    t0 = perf_counter()
    try:
        result = pipeline.run(cfg)
    except TemponetError as exc:
        seconds = perf_counter() - t0
        msg = f"{type(exc).__name__}: {exc}"
        return Outcome(seconds, attempted=1, failed=1, failures=[msg], digest=msg)
    seconds = perf_counter() - t0
    if check:
        check_csv_round_trip(result, outdir)
    sizes = {name: os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir)}
    out = Outcome(
        seconds,
        steps=len(result.snapshots),
        attempted=1,
        links=sum(s.link_count for s in result.snapshots),
        vis=[b.vi for b in result.report.boundaries],
        digest=files_digest(outdir),
        out_bytes=sum(sizes.values()),
        csv_bytes=sizes.get("nodes.csv", 0) + sizes.get("edges.csv", 0),
    )
    shutil.rmtree(outdir, ignore_errors=True)
    return out


def files_digest(outdir: str) -> str:
    parts = []
    for name in DIGEST_FILES:
        with open(os.path.join(outdir, name), "rb") as fh:
            parts.append(f"{name}={hashlib.sha256(fh.read()).hexdigest()}")
    return " ".join(parts)


def check_csv_round_trip(result, outdir: str) -> None:
    communities, edges = read_temporal_csv(
        os.path.join(outdir, "nodes.csv"), os.path.join(outdir, "edges.csv")
    )
    for snap in result.snapshots:
        want = {nid: snap.community_labels[n.community] for nid, n in snap.nodes.items()}
        if communities.get(snap.t) != want:
            raise CheckFailed(f"nodes.csv disagrees with snapshot {snap.t}")
        if edges.get(snap.t) != snap.links:
            raise CheckFailed(f"edges.csv disagrees with snapshot {snap.t}")


def run_flows(flows: list[FlowInput], search_cfg, tracer=None) -> Outcome:
    """Every transition as the pipeline makes it, checked against its pool and pins."""
    p = pipeline
    found, failures = [], []
    t0 = perf_counter()
    for f in flows:
        try:
            if tracer is None:
                found.append(_transition(p, f, search_cfg))
            else:
                with tracer.root("bench.transition"):
                    found.append(_transition(p, f, search_cfg))
        except TemponetError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            found.append(None)
    seconds = perf_counter() - t0
    h = hashlib.sha256()
    vis = []
    for f, res in zip(flows, found):
        if res is None:
            h.update(b"failed")
            continue
        system, best, u = res
        check_flow(f, system, best, u)
        vis.append(p.variation_of_information(u))
        h.update(u.tobytes())
    return Outcome(
        seconds,
        steps=len(vis),
        attempted=len(flows),
        failed=len(failures),
        vis=vis,
        failures=failures,
        digest=h.hexdigest(),
    )


def _transition(p, f: FlowInput, search_cfg):
    system = p.build_flow_system(f.sizes_from, f.sizes_to, lower=f.lower)
    pool = p.seed_pool(system)
    pool_vi = [p.variation_of_information(u) for u in pool]
    best = pool[int(np.argmin(pool_vi))]
    found = p.taboo_search(system, best, p.kernel_basis(system), search_cfg)
    return system, best, found


def check_flow(f: FlowInput, system, best, u) -> None:
    if not system.is_feasible(u):
        raise CheckFailed(f"infeasible flow for {f.sizes_from} -> {f.sizes_to}")
    if f.death_col is not None and not np.array_equal(u[:, f.death_col], f.lower[:, f.death_col]):
        raise CheckFailed(f"pinned death column moved for {f.sizes_from} -> {f.sizes_to}")
    vi, pool_vi = pipeline.variation_of_information(u), pipeline.variation_of_information(best)
    if vi > pool_vi + 1e-12:
        raise CheckFailed(f"search VI {vi} worse than best-of-pool {pool_vi}")
