"""Per-timestep input sequences: community sizes, node degrees and the intra/inter split.

Continuous families (uniform, exponential, power law) are sampled by inverse
CDF on the law truncated to ``[minimum, maximum]`` and then discretized with
the configured rounding mode.  The binomial family is inherently discrete and
is drawn as ``minimum + Binomial(maximum - minimum, param)`` so its support is
exactly the configured range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FAMILIES = ("uniform", "power_law", "exponential", "binomial")
MIX_MODES = ("fixed", "bernoulli")
ROUNDING_MODES = ("nearest", "stochastic")


@dataclass
class CommunitySpec:
    """Multiset of community sizes for one timestep."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if not self.sizes:
            raise ConfigurationError("at least one community size is required")
        if min(self.sizes) < 1:
            raise ConfigurationError("community sizes must be positive")

    @property
    def node_count(self) -> int:
        return sum(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass
class DegreeSpec:
    """Bijective sequences of total and intra-community node degrees.

    The inter degree of slot ``i`` is derived as ``total[i] - intra[i]``.
    Parity of the sums is not enforced by the constructor; ``fix_parity``
    repairs freshly sampled sequences.
    """

    total: tuple[int, ...]
    intra: tuple[int, ...]

    def __post_init__(self):
        self.total = tuple(int(d) for d in self.total)
        self.intra = tuple(int(e) for e in self.intra)
        if not self.total:
            raise ConfigurationError("degree sequences are empty")
        if len(self.total) != len(self.intra):
            raise ConfigurationError("total and intra sequences differ in length")
        for i, (d, e) in enumerate(zip(self.total, self.intra)):
            if d < 1:
                raise ConfigurationError(f"slot {i}: total degree {d} < 1 (no isolated nodes)")
            if e < 0 or e > d:
                raise ConfigurationError(f"slot {i}: intra degree {e} outside [0, {d}]")

    @property
    def inter(self) -> tuple[int, ...]:
        return tuple(d - e for d, e in zip(self.total, self.intra))

    def __len__(self) -> int:
        return len(self.total)


@dataclass
class SamplerConfig:
    """Parametric family for i.i.d. integer sampling on ``[minimum, maximum]``.

    ``param`` is the family's free parameter: power-law exponent, exponential
    rate or binomial success probability (ignored for uniform).  ``mix_ratio``
    and ``mix_mode`` describe how total degrees are split into intra/inter
    parts, ``rounding`` how continuous draws are discretized.
    """

    family: str
    minimum: int
    maximum: int
    param: float = 1.0
    mix_ratio: float = 0.5
    mix_mode: str = "fixed"
    rounding: str = "stochastic"

    def __post_init__(self):
        self.family = str(self.family).strip().lower().replace("-", "_").replace(" ", "_")
        if self.family == "powerlaw":
            self.family = "power_law"
        self.minimum = int(self.minimum)
        self.maximum = int(self.maximum)
        self.param = float(self.param)
        self.mix_ratio = float(self.mix_ratio)
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown sampler family {self.family!r}")
        if self.minimum < 1:
            raise ConfigurationError("minimum must be >= 1")
        if self.minimum > self.maximum:
            raise ConfigurationError("minimum must not exceed maximum")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ConfigurationError("mix_ratio must lie in [0, 1]")
        if self.mix_mode not in MIX_MODES:
            raise ConfigurationError(f"unknown mix_mode {self.mix_mode!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ConfigurationError(f"unknown rounding mode {self.rounding!r}")
        if self.family == "exponential" and self.param <= 0:
            raise ConfigurationError("exponential rate must be positive")
        if self.family == "power_law" and self.param <= 0:
            raise ConfigurationError("power-law exponent must be positive")
        if self.family == "binomial" and not 0.0 <= self.param <= 1.0:
            raise ConfigurationError("binomial success probability must lie in [0, 1]")


def _round_array(values: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    if mode == "nearest":
        # half-way cases always round up, independent of the RNG
        return np.floor(values + 0.5).astype(np.int64)
    base = np.floor(values)
    frac = values - base
    return (base + (rng.random(values.shape) < frac)).astype(np.int64)


def _sample_integers(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.family == "binomial":
        span = cfg.maximum - cfg.minimum
        return cfg.minimum + rng.binomial(span, cfg.param, size=count).astype(np.int64)
    u = rng.random(count)
    a, b = float(cfg.minimum), float(cfg.maximum)
    if cfg.family == "uniform":
        x = a + (b - a) * u
    elif cfg.family == "exponential":
        lam = cfg.param
        ea, eb = math.exp(-lam * a), math.exp(-lam * b)
        x = -np.log(ea - u * (ea - eb)) / lam
    else:  # power_law: pdf ~ x**(-param) on [a, b]
        g = cfg.param
        if abs(g - 1.0) < 1e-12:
            x = a * (b / a) ** u
        else:
            p = 1.0 - g
            x = (a**p + u * (b**p - a**p)) ** (1.0 / p)
    rounded = _round_array(x, cfg.rounding, rng)
    # float edge cases only; the continuous draw already lies in [a, b]
    return np.clip(rounded, cfg.minimum, cfg.maximum)


def sample_sizes(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> CommunitySpec:
    """Draw ``count`` i.i.d. community sizes from the configured family."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    return CommunitySpec(tuple(_sample_integers(cfg, count, rng)))


def sample_degrees(cfg: SamplerConfig, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw ``n`` i.i.d. total node degrees; sum parity is fixed later."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return tuple(_sample_integers(cfg, n, rng))


def split_degrees(
    total,
    r: float,
    mode: str = "fixed",
    rounding: str = "stochastic",
    rng: np.random.Generator | None = None,
) -> DegreeSpec:
    """Split total degrees into intra parts with ratio ``r``.

    ``fixed`` rounds ``r * d_i`` with the chosen rounding mode; ``bernoulli``
    draws ``Binomial(d_i, r)`` intra stubs per node.  Sum parities are not
    enforced here (see ``fix_parity``).
    """
    if not 0.0 <= r <= 1.0:
        raise ConfigurationError("split ratio must lie in [0, 1]")
    if mode not in MIX_MODES:
        raise ConfigurationError(f"unknown mix mode {mode!r}")
    if rng is None:
        raise ConfigurationError("an explicit random generator is required")
    totals = np.asarray(total, dtype=np.int64)
    if totals.size == 0:
        raise ConfigurationError("empty degree sequence")
    if totals.min() < 1:
        raise ConfigurationError("total degrees must be >= 1")
    if mode == "bernoulli":
        intra = rng.binomial(totals, r)
    else:
        intra = _round_array(totals * r, rounding, rng)
    intra = np.clip(intra, 0, totals)
    return DegreeSpec(tuple(totals), tuple(intra))


def fix_parity(
    spec: DegreeSpec,
    rng: np.random.Generator,
    degree_bounds: tuple[int, int] | None = None,
) -> DegreeSpec:
    """Repair odd intra/inter degree sums with single +-1 adjustments.

    An odd intra sum is fixed by moving one randomly chosen ``e_i`` one step
    inside ``[0, d_i]``.  An odd inter sum after that (equivalently an odd
    total sum) is fixed by moving one ``d_i`` one step while respecting
    ``degree_bounds`` and ``d_i >= max(1, e_i)``.
    """
    total = list(spec.total)
    intra = list(spec.intra)
    if sum(intra) % 2 == 1:
        i = int(rng.integers(len(intra)))
        moves = []
        if intra[i] + 1 <= total[i]:
            moves.append(1)
        if intra[i] - 1 >= 0:
            moves.append(-1)
        # d_i >= 1 so at least one direction is always legal
        intra[i] += moves[int(rng.integers(len(moves)))]
    if (sum(total) - sum(intra)) % 2 == 1:
        lo = 1 if degree_bounds is None else max(1, degree_bounds[0])
        hi = None if degree_bounds is None else degree_bounds[1]
        moves = []
        for i, d in enumerate(total):
            if hi is None or d + 1 <= hi:
                moves.append((i, 1))
            if d - 1 >= max(lo, intra[i], 1):
                moves.append((i, -1))
        if not moves:
            raise ConfigurationError("cannot repair inter-degree parity within the degree bounds")
        i, delta = moves[int(rng.integers(len(moves)))]
        total[i] += delta
    return DegreeSpec(tuple(total), tuple(intra))


def load_sequences(path) -> list[tuple[CommunitySpec, DegreeSpec]]:
    """Read per-timestep sequences from a plain-text file.

    Blocks separated by blank lines, one block per timestep.  Line 1 of a
    block lists the community sizes (space-separated); each following line is
    one ``total intra`` pair per node slot.  Lines starting with ``#`` are
    comments.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    blocks: list[list[str]] = [[]]
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append(line)
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise ConfigurationError(f"{path}: no timestep blocks found")
    steps = []
    for b, lines in enumerate(blocks):
        try:
            sizes = CommunitySpec(tuple(int(tok) for tok in lines[0].split()))
        except ValueError as exc:
            raise ConfigurationError(f"{path}: block {b}: bad size line: {exc}") from None
        pairs = []
        for ln in lines[1:]:
            try:
                d, e = (int(tok) for tok in ln.split())
            except ValueError:
                raise ConfigurationError(
                    f"{path}: block {b}: expected 'total intra' pair, got {ln!r}"
                ) from None
            pairs.append((d, e))
        if len(pairs) != sizes.node_count:
            raise ConfigurationError(
                f"{path}: block {b}: {len(pairs)} degree pairs for {sizes.node_count} nodes"
            )
        spec = DegreeSpec(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
        steps.append((sizes, spec))
    return steps


def dump_sequences(steps, path) -> None:
    """Write timestep sequences in the format read by ``load_sequences``."""
    chunks = []
    for sizes, spec in steps:
        lines = [" ".join(str(s) for s in sizes.sizes)]
        lines.extend(f"{d} {e}" for d, e in zip(spec.total, spec.intra))
        chunks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(chunks) + "\n")
