"""Command line interface.

Subcommands: ``generate`` runs the full pipeline from a config file,
``check`` tests a sequence file for graphability, ``flow`` explores a single
transition (lattice count, seed pool, steepest-descent search) and
``version`` prints the package version.  Exit codes: 0 ok, 2 validation,
3 graphability, 4 wiring, 5 I/O.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import GraphabilityError, LatticeOverflowError, TemponetError
from .graphability import check_graphable
from .pipeline import load_run_config, run
from .sequences import load_sequences
from .transition import (
    build_flow_system,
    count_lattice,
    kernel_basis,
    seed_pool,
    taboo_search,
    variation_of_information,
)

IO_EXIT_CODE = 5


def _sizes_arg(text: str) -> tuple[int, ...]:
    """Sizes separated by commas or whitespace; an empty entry such as ``10,,6`` is an error."""
    tokens = re.split(r"\s*,\s*|\s+", text.strip())
    if tokens == [""]:
        raise argparse.ArgumentTypeError("empty size list")
    if "" in tokens:
        raise argparse.ArgumentTypeError(f"empty entry in the size list {text!r}")
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size list: {text!r}")


def _cap_arg(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"the enumeration cap must be non-negative, got {cap}")
    return cap


def _cmd_generate(args) -> int:
    flags = ("seed", "output", "timesteps", "no_search")  # each replaces its [run] key
    overrides = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    cfg = load_run_config(args.config, overrides)
    if cfg.output_dir is None:
        cfg.output_dir = f"run_seed{cfg.seed}_{time.strftime('%Y%m%d-%H%M%S')}"
    result = run(cfg)
    last = result.snapshots[-1]
    print(
        f"generated {len(result.snapshots)} snapshots"
        f" ({len(result.report.boundaries)} boundaries),"
        f" final size {last.node_count} nodes / {last.link_count} links"
    )
    print(f"outputs in {result.output_dir}")
    return 0


def _cmd_check(args) -> int:
    steps = load_sequences(args.file)
    failures = 0
    for t, (sizes, spec) in enumerate(steps):
        report = check_graphable(sizes, spec)
        if report.ok:
            print(f"T{t}: graphable ({len(sizes)} communities, {sizes.node_count} nodes)")
        else:
            failures += 1
            where = (
                f" (community {report.failing_community})"
                if report.failing_community is not None
                else ""
            )
            print(f"T{t}: NOT graphable: {report.failing_condition.value}{where}: {report.detail}")
    if failures:
        raise GraphabilityError(f"{failures} of {len(steps)} timesteps are not graphable")
    return 0


def _cmd_flow(args) -> int:
    system = build_flow_system(args.sizes_from, args.sizes_to)
    print(
        f"transition {list(args.sizes_from)} -> {list(args.sizes_to)}:"
        f" {system.k} x {system.l} communities, {system.node_count} nodes,"
        f" kernel dimension {(system.k - 1) * (system.l - 1)}"
    )
    try:
        count = count_lattice(system, cap=args.cap)
        print(f"solution count: {count}")
    except LatticeOverflowError as exc:
        print(f"solution count: not enumerated (more than {exc.cap})")
    names = ["mi_greedy", "sorted_residual", "max_chunk", "northwest", "proportional"]
    pool = seed_pool(system)
    scores = [variation_of_information(u) for u in pool]
    for name, score in zip(names, scores):
        print(f"seed {name:>16}: VI = {score:.6f}")
    best = pool[int(np.argmin(scores))]
    trace: list = []
    found = taboo_search(system, best, kernel_basis(system), trace=trace)
    print(f"taboo search: VI = {variation_of_information(found):.6f}")
    for move, vi in trace:
        print(f"  move {move:>4}: VI = {vi:.6f}")
    print("best flow found:")
    for row in found:
        print("  " + " ".join(f"{int(x):>4}" for x in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temponet",
        description="Generate temporal networks with ground-truth community structure.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full pipeline from a config file")
    gen.add_argument("--config", required=True, help="INI config file (see README)")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.add_argument("--output", default=None, help="override the output directory")
    gen.add_argument("--timesteps", type=int, default=None, help="override the step count")
    gen.add_argument(
        "--no-search", action="store_const", const=True, help="keep the best pool flow, no search"
    )
    gen.set_defaults(func=_cmd_generate)

    chk = sub.add_parser("check", help="test a sequence file for graphability")
    chk.add_argument("--file", required=True, help="plain-text sequence file")
    chk.set_defaults(func=_cmd_check)

    flw = sub.add_parser("flow", help="explore one transition between size multisets")
    flw.add_argument("--sizes-from", dest="sizes_from", type=_sizes_arg, required=True)
    flw.add_argument("--sizes-to", dest="sizes_to", type=_sizes_arg, required=True)
    flw.add_argument("--cap", type=_cap_arg, default=500_000, help="enumeration cap")
    flw.set_defaults(func=_cmd_flow)

    ver = sub.add_parser("version", help="print the package version")
    ver.set_defaults(func=lambda args: print(__version__) or 0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args) or 0
    except TemponetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_EXIT_CODE


if __name__ == "__main__":
    raise SystemExit(main())
