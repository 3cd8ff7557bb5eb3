"""End-to-end temporal network generation.

Every timestep goes through one step.  From T1 on, the step first applies
the kill set, balances populations with birth/death adjustment communities,
searches the flow polytope for the minimum-VI node flow (kept flows pinned
to the user kills) and materializes the flow into concrete node moves.  Then
it assigns degree tuples (with the temporal-correlation draw after T0),
wires the snapshot and reports metrics plus lifecycle events.  In sampler
mode a timestep's sequences are drawn again when they fail the gate or the
assembly, up to ``max_sequence_retries`` draws per timestep in all.
"""

from __future__ import annotations

import configparser
import hashlib
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .assembler import ShapeParams, Snapshot, _lookup, assemble_snapshot
from .errors import ConfigurationError, GraphabilityError
from .graphability import check_graphable
from .lifecycle import (  # noqa: F401 -- perfbench/tracer.py patches pipeline.jaccard by name
    LifecycleThresholds,
    classify_events,
    flow_jaccard,
    inherit_labels,
    jaccard,
)
from .metrics import (
    assortativity_details,
    modularity,
    temporal_degree_correlation_details,
)
from .output import (
    BoundaryReport,
    RunReport,
    SnapshotMetrics,
    export_temporal_csv,
    write_report,
)
from .sequences import (
    CommunitySpec,
    DegreeSpec,
    SamplerConfig,
    fix_parity,
    load_sequences,
    sample_degrees,
    sample_sizes,
    split_degrees,
)
from .transition import (
    build_flow_system,
    kernel_basis,
    materialize_flow,
    seed_pool,
    taboo_search,
    variation_of_information,
)


@dataclass
class TransitionPlan:
    """Death/birth bookkeeping that balances populations across a boundary."""

    deaths: int
    births: int
    kill_ids: tuple[int, ...]
    sizes_from_augmented: tuple[int, ...]
    sizes_to_augmented: tuple[int, ...]
    birth_row: int | None
    death_col: int | None


def plan_transition(
    sizes_t: CommunitySpec,
    sizes_t1: CommunitySpec,
    kills,
    rng: np.random.Generator,
    alive_ids,
) -> TransitionPlan:
    """Balance node counts across a boundary.

    ``kills`` is the boundary's kill spec: an ``int`` count of kills drawn
    uniformly from ``alive_ids`` (one ``rng.choice`` over the ascending ids,
    none for a count of 0), or a sequence of explicit kill ids.  Deaths are
    those kills plus, depending on the sign of ``sum(S_t) - sum(S_t+1) - |O|``,
    additional kills drawn uniformly from ``alive_ids`` outside the kill set;
    the opposite sign births new nodes instead.  The plan's ``kill_ids``
    therefore name all ``deaths``.  The death-adjustment community is
    appended to the t+1 side and the birth-adjustment community to the t
    side (only when non-empty).  Kill ids outside ``alive_ids``, and a count
    above their number, raise ``ConfigurationError`` before any draw.
    """
    alive = sorted(set(alive_ids))
    if isinstance(kills, numbers.Integral):
        if kills > len(alive):
            raise ConfigurationError(f"cannot kill {kills} of {len(alive)} alive nodes")
        picks = rng.choice(len(alive), size=kills, replace=False) if kills else ()
        kills = [alive[int(p)] for p in picks]
    kill_ids = tuple(sorted(set(int(x) for x in kills)))
    unknown = sorted(set(kill_ids).difference(alive))
    if unknown:
        raise ConfigurationError(f"kill ids {unknown} are not alive")
    n_t, n_t1 = sizes_t.node_count, sizes_t1.node_count
    if len(kill_ids) > n_t:
        raise ConfigurationError(f"kill set of {len(kill_ids)} exceeds the population {n_t}")
    gap = n_t1 - (n_t - len(kill_ids))
    births = max(0, gap)
    extra = max(0, -gap)
    deaths = len(kill_ids) + extra
    pool = sorted(set(alive).difference(kill_ids))
    if len(kill_ids) + len(pool) < deaths:
        raise ConfigurationError("not enough alive nodes to draw the extra kills from")
    if extra:
        picks = rng.choice(len(pool), size=extra, replace=False)
        kill_ids = tuple(sorted(kill_ids + tuple(pool[int(p)] for p in picks)))
    sizes_from = sizes_t.sizes + ((births,) if births else ())
    sizes_to = sizes_t1.sizes + ((deaths,) if deaths else ())
    return TransitionPlan(
        deaths=deaths,
        births=births,
        kill_ids=kill_ids,
        sizes_from_augmented=sizes_from,
        sizes_to_augmented=sizes_to,
        birth_row=len(sizes_t.sizes) if births else None,
        death_col=len(sizes_t1.sizes) if deaths else None,
    )


def _integer(name: str, x) -> int:
    """``x`` as an ``int``; any integral type counts, anything else is refused."""
    if isinstance(x, numbers.Integral):
        return operator.index(x)
    raise ConfigurationError(f"{name}: {x!r} is not an integer")


def _normalize_kills(kills):
    """A kill spec as an ``int`` count for every boundary, or as a tuple with
    one entry per boundary, each an ``int`` count or a tuple of ids.  Any
    integral type counts as an integer; an empty list kills nobody."""
    if not isinstance(kills, (list, tuple)):
        return _integer("kills", kills)
    if not kills:
        return 0
    return tuple(
        tuple(_integer("kills", x) for x in entry)
        if isinstance(entry, (list, tuple))
        else _integer("kills", entry)
        for entry in kills
    )


@dataclass
class RunConfig:
    """Everything a reproducible run needs."""

    timesteps: int
    seed: int = 0
    community_cfg: SamplerConfig | None = None
    degree_cfg: SamplerConfig | None = None
    community_count: int = 4
    sequence_file: str | None = None
    kills: object = 0  # count per boundary, or a per-boundary list of counts / id lists
    pairing_shape: ShapeParams = field(default_factory=ShapeParams)
    temporal_shape: ShapeParams = field(default_factory=ShapeParams)
    thresholds: LifecycleThresholds = field(default_factory=LifecycleThresholds)
    no_search: bool = False
    max_sequence_retries: int = 1  # draws per sampled timestep in all; 1 stops at a failure
    on_disconnected: str = "warn"  # or "abort"
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("timesteps", "seed", "community_count", "max_sequence_retries"):
            setattr(self, name, _integer(name, getattr(self, name)))
        if self.timesteps < 1:
            raise ConfigurationError("timesteps must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.sequence_file is None:
            if self.community_cfg is None or self.degree_cfg is None:
                raise ConfigurationError(
                    "either a sequence file or community and degree sampler configs are required"
                )
            if self.community_count < 1:
                raise ConfigurationError("community_count must be >= 1")
        cc = self.community_cfg
        for f in fields(SamplerConfig):  # the community sampler reads no mix setting
            if cc is not None and f.name.startswith("mix_") and getattr(cc, f.name) != f.default:
                raise ConfigurationError(f"community_cfg.{f.name} is not read; use degree_cfg")
        if self.on_disconnected not in ("warn", "abort"):
            raise ConfigurationError("on_disconnected must be 'warn' or 'abort'")
        self.kills = _normalize_kills(self.kills)
        per_boundary = isinstance(self.kills, tuple)
        counts = self.kills if per_boundary else (self.kills,)
        if any(isinstance(x, int) and x < 0 for x in counts):
            raise ConfigurationError("random kill counts must be >= 0")
        if per_boundary and len(self.kills) < self.timesteps - 1:
            raise ConfigurationError("kill list shorter than the number of boundaries")
        if self.max_sequence_retries < 1:
            raise ConfigurationError("max_sequence_retries must be >= 1")

    def echo(self) -> dict:
        """Every field of the config, nested configs included, for report.json.

        ``output_dir`` is left out and ``sequence_file`` is replaced by the
        sha256 of the file's contents: where a run reads and writes does not
        change what it produces.
        """
        out = asdict(self)
        del out["output_dir"]
        if self.sequence_file is not None:
            with open(self.sequence_file, "rb") as fh:
                out["sequence_file"] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        return out


@dataclass
class RunResult:
    snapshots: list[Snapshot]
    report: RunReport
    output_dir: str | None = None


def _kills_for_boundary(cfg: RunConfig, boundary: int):
    """The kill spec of boundary t -> t+1: an ``int`` count or a tuple of ids."""
    return cfg.kills[boundary] if isinstance(cfg.kills, tuple) else cfg.kills


def _draw_sequences(cfg: RunConfig, rng: np.random.Generator) -> tuple[CommunitySpec, DegreeSpec]:
    """One sampler-mode draw of a timestep's sequences, not yet gated."""
    deg = cfg.degree_cfg
    sizes = sample_sizes(cfg.community_cfg, cfg.community_count, rng)
    total = sample_degrees(deg, sizes.node_count, rng)
    spec = split_degrees(total, deg.mix_ratio, deg.mix_mode, deg.rounding, rng)
    return sizes, fix_parity(spec, rng, (deg.minimum, deg.maximum))


def _snapshot_metrics(snap: Snapshot) -> SnapshotMetrics:
    assort, degenerate = assortativity_details(snap)
    return SnapshotMetrics(
        t=snap.t,
        nodes=snap.node_count,
        links=snap.link_count,
        communities=snap.community_count,
        assortativity=assort,
        assortativity_degenerate=degenerate,
        modularity=modularity(snap),
        wiring_repairs=snap.wiring_repairs,
        disconnected_communities=list(snap.disconnected_communities),
    )


@dataclass
class _State:
    """What the next timestep needs from the last one."""

    snap: Snapshot
    sizes: CommunitySpec
    next_id: int  # node ids are never recycled
    next_label: int  # neither are community labels


@dataclass
class _Moves:
    """One boundary's transition: the kill plan, the searched flow and every node's target."""

    plan: TransitionPlan
    flow: np.ndarray
    pool_vi: list[float]
    ids: np.ndarray  # the new timestep's node ids, survivors first
    community: np.ndarray  # and the community each takes there


def _plan_moves(cfg: RunConfig, rng, prev: _State, sizes_t1: CommunitySpec, t: int) -> _Moves:
    """Plan the kills into timestep ``t``, search the flow and materialize it into node moves."""
    snap = prev.snap
    kills = _kills_for_boundary(cfg, t - 1)
    try:
        plan = plan_transition(prev.sizes, sizes_t1, kills, rng, alive_ids=snap.ids.tolist())
    except ConfigurationError as exc:
        raise ConfigurationError(f"boundary {t - 1}: {exc}") from exc

    k_real, l_real = len(prev.sizes), len(sizes_t1)
    dies = np.isin(snap.ids, plan.kill_ids)
    lower = np.zeros((len(plan.sizes_from_augmented), len(plan.sizes_to_augmented)), np.int64)
    if plan.death_col is not None:
        lower[:k_real, plan.death_col] = np.bincount(snap.community[dies], minlength=k_real)
    system = build_flow_system(plan.sizes_from_augmented, plan.sizes_to_augmented, lower=lower)
    pool_flows = seed_pool(system)
    pool_vi = [variation_of_information(u) for u in pool_flows]
    flow = pool_flows[int(np.argmin(pool_vi))]
    if not cfg.no_search:
        flow = taboo_search(system, flow, kernel_basis(system))

    # concrete node moves: survivors only; the pinned death column is the kill
    # set.  One stable argsort groups the survivors by community, each group
    # in the ids' own order.
    community = snap.community[~dies]
    order = np.argsort(community, kind="stable")
    ids = snap.ids[~dies][order].tolist()
    ends = np.bincount(community, minlength=k_real).cumsum().tolist()
    groups = [ids[a:b] for a, b in zip([0] + ends, ends)]
    moved = materialize_flow(flow[:k_real, :l_real], groups, rng)
    # the chunks of survivors cell by cell, then the births of the last row,
    # which take fresh ids target by target
    born = range(prev.next_id, prev.next_id + plan.births)
    ids = np.array([nid for row in moved for chunk in row for nid in chunk] + [*born], np.int64)
    community = np.tile(np.arange(l_real), len(flow)).repeat(flow[:, :l_real].ravel())
    return _Moves(plan, flow, pool_vi, ids, community)


def _record_boundary(cfg: RunConfig, prev: _State, moves: _Moves, snap: Snapshot, report) -> int:
    """Check the realized contingency, label and report the boundary.

    Returns the next unused community label.
    """
    old, plan, flow = prev.snap, moves.plan, moves.flow
    t = old.t

    # the realized contingency, births (last row) and deaths (last column)
    # included, must reproduce the flow exactly
    k, l = old.community_count, snap.community_count
    at, kept = _lookup(snap.ids, old.ids)
    target = np.full(old.node_count, l)
    target[kept] = snap.community[at[kept]]
    born = ~_lookup(old.ids, snap.ids)[1]
    recount = np.zeros((k + 1, l + 1), dtype=np.int64)
    np.add.at(recount, (old.community, target), 1)
    np.add.at(recount, (k, snap.community[born]), 1)
    padded = np.pad(flow, [(0, have - got) for have, got in zip(recount.shape, flow.shape)])
    if not np.array_equal(recount, padded):
        raise AssertionError("realized contingency deviates from the searched flow")

    events = classify_events(
        flow, cfg.thresholds, death_col=plan.death_col, birth_row=plan.birth_row
    )
    snap.community_labels, next_label = inherit_labels(
        flow_jaccard(flow, plan.birth_row, plan.death_col),
        old.community_labels,
        cfg.thresholds.continuation,
        prev.next_label,
    )

    corr, corr_degenerate = temporal_degree_correlation_details(old, snap)
    row_labels = [str(x) for x in old.community_labels] + (
        ["births"] if plan.birth_row is not None else []
    )
    col_labels = [str(x) for x in snap.community_labels] + (
        ["deaths"] if plan.death_col is not None else []
    )
    report.boundaries.append(
        BoundaryReport(
            t_from=t,
            t_to=t + 1,
            vi=variation_of_information(flow),
            contingency=flow.tolist(),
            row_labels=row_labels,
            col_labels=col_labels,
            temporal_degree_correlation=corr,
            correlation_degenerate=corr_degenerate,
            deaths=plan.deaths,
            births=plan.births,
            seed_pool_vi=moves.pool_vi,
            events=events,
        )
    )
    return next_label


def _step(cfg: RunConfig, rng, prev: _State | None, sizes, spec, t: int, report) -> _State:
    """Build timestep ``t`` from the previous one (``None`` bootstraps T0) and report it.

    Raises ``GraphabilityError`` before anything is recorded when the gated
    sequences cannot be assembled, so that the caller may draw again.
    """
    if prev is None:
        moves, placement = None, {}
    else:
        moves = _plan_moves(cfg, rng, prev, sizes, t)
        at, known = _lookup(prev.snap.ids, moves.ids)
        placement = dict(
            ids=moves.ids,
            community=moves.community,
            prev_degree=np.where(known, prev.snap.degree[at], 0),
        )
    snap = assemble_snapshot(
        t,
        sizes,
        spec,
        rng,
        pairing_shape=cfg.pairing_shape,
        temporal_shape=cfg.temporal_shape,
        **placement,
    )
    if snap.disconnected_communities and cfg.on_disconnected == "abort":
        raise GraphabilityError(
            f"communities {snap.disconnected_communities} are internally disconnected"
        )
    if prev is None:
        state = _State(snap, sizes, snap.node_count, snap.community_count)
    else:
        next_label = _record_boundary(cfg, prev, moves, snap, report)
        state = _State(snap, sizes, prev.next_id + moves.plan.births, next_label)
    report.snapshots.append(_snapshot_metrics(snap))
    return state


def run(cfg: RunConfig) -> RunResult:
    """Execute the full generation loop; identical configs give identical outputs."""
    rng = np.random.default_rng(cfg.seed)
    steps = None
    if cfg.sequence_file is not None:
        steps = load_sequences(cfg.sequence_file)
        if len(steps) < cfg.timesteps:
            raise ConfigurationError(
                f"sequence file provides {len(steps)} timesteps, the run needs {cfg.timesteps}"
            )
    # the samplers draw a timestep again when its sequences cannot be mended
    # to even sums, fail the gate or cannot be assembled; a sequence file has
    # one draw to give
    draws = cfg.max_sequence_retries if steps is None else 1
    report = RunReport(seed=cfg.seed, config=cfg.echo())
    snapshots: list[Snapshot] = []
    state = None
    for t in range(cfg.timesteps):
        failures: list[str] = []
        for _ in range(draws):
            try:
                sizes, spec = steps[t] if steps is not None else _draw_sequences(cfg, rng)
                gate = check_graphable(sizes, spec)
                if not gate.ok:
                    failures.append(gate.reason)
                    continue
                state = _step(cfg, rng, state, sizes, spec, t, report)
                break
            except GraphabilityError as exc:
                failures.append(str(exc))
        else:
            raise GraphabilityError.exhausted(t, "sequence draw", failures)
        snapshots.append(state.snap)

    if cfg.output_dir is not None:
        export_temporal_csv(snapshots, cfg.output_dir)
        write_report(report, cfg.output_dir)
    return RunResult(snapshots=snapshots, report=report, output_dir=cfg.output_dir)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def _sampler_keys(target: str) -> dict:
    attrs = {"min": "minimum", "max": "maximum"}
    parsers = {"family": str, "min": int, "max": int, "param": float, "rounding": str}
    return {key: (f"{target}.{attrs.get(key, key)}", parse) for key, parse in parsers.items()}


# INI section -> key -> the RunConfig field the key sets ("field.attribute"
# inside a nested config) and the parser of its text; ``bool`` stands for
# configparser's boolean states (1/0, yes/no, true/false, on/off)
_KEYS = {
    "run": {
        "timesteps": ("timesteps", int),
        "seed": ("seed", int),
        "kills": ("kills", int),
        "sequence_file": ("sequence_file", str),
        "no_search": ("no_search", bool),
        "max_sequence_retries": ("max_sequence_retries", int),
        "on_disconnected": ("on_disconnected", str),
        "output": ("output_dir", str),
    },
    "communities": {**_sampler_keys("community_cfg"), "count": ("community_count", int)},
    "degrees": {
        **_sampler_keys("degree_cfg"),
        "mix_ratio": ("degree_cfg.mix_ratio", float),
        "mix_mode": ("degree_cfg.mix_mode", str),
    },
    "shapes": {
        f"{shape}_{attr}": (f"{shape}_shape.{attr}", float)
        for shape in ("pairing", "temporal")
        for attr in ("alpha", "beta")
    },
    "lifecycle": {
        key: (f"thresholds.{key}", float) for key in ("continuation", "share", "size_dead_band")
    },
}
_NESTED = {
    "community_cfg": SamplerConfig,
    "degree_cfg": SamplerConfig,
    "pairing_shape": ShapeParams,
    "temporal_shape": ShapeParams,
    "thresholds": LifecycleThresholds,
}


def load_run_config(path, overrides=None) -> RunConfig:
    """Read a RunConfig from an INI-style key/value file (see README).

    Only the keys the file sets are passed on, so every default lives on its
    dataclass.  ``overrides`` maps ``[run]`` keys to values that win over the file's."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    values: dict[str, dict] = {}  # RunConfig's own fields under ""
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigurationError(f"{path}: unknown section [{name}]")
        for key in ("family", "min", "max") if name in ("communities", "degrees") else ():
            if not parser[name].get(key):
                raise ConfigurationError(f"{path}: [{name}] {key} is required")
        for key, text in parser[name].items():
            if key not in _KEYS[name]:
                raise ConfigurationError(f"{path}: unknown key {key!r} in section [{name}]")
            if not text:
                continue  # an empty value keeps the default
            dest, parse = _KEYS[name][key]
            try:
                value = parser[name].getboolean(key) if parse is bool else parse(text)
            except ValueError as exc:
                raise ConfigurationError(f"{path}: [{name}] {key}: {exc}") from None
            outer, _, attr = dest.rpartition(".")
            values.setdefault(outer, {})[attr] = value
    fields = values.pop("", {})
    for key, value in (overrides or {}).items():
        fields[_KEYS["run"][key][0]] = value
    if "timesteps" not in fields:
        raise ConfigurationError(f"{path}: [run] timesteps is required")
    for outer, kwargs in values.items():
        fields[outer] = _NESTED[outer](**kwargs)
    return RunConfig(**fields)
