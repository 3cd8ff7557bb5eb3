"""The compiled kernel: the same wiring as ``assembler._pair``, the same
export text as a bytes ``%`` format, and its build cache.

``assembler._kernel`` builds ``_fill.c`` at the first wiring or export call
of a process and caches the build per user; where no build loads, wiring
runs ``_pair`` and the export formats each block with ``%``.  The tests here
compare the two fill loops on random phases, match ``_fill.c``'s status codes
and state slots to ``assembler``'s names, bound the Beta variates a repair
reads again, compare ``temponet_format`` with ``%`` on random blocks, and
check the cache.  ``test_fill_fallback.py`` runs the wiring and export tests
on the Python paths.
"""

import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from temponet import ShapeParams, WiringError, assembler, output, wire_inter, wire_intra

from oracles import node_columns, reference_wire_phase

needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
SRC = Path(assembler.__file__).resolve().parent.parent


def _outcome(wire, nodes, shape, rng):
    """The sorted link rows and repairs of one wiring call, or its
    ``WiringError`` text, with the generator's state after the call."""
    try:
        rows, repairs = wire(*node_columns(nodes), shape, rng)
        result = (sorted(map(tuple, rows.tolist())), repairs)
    except WiringError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


def _kind(result) -> str:
    if not isinstance(result, str):
        return "repaired" if result[1] else "plain"
    return result.split(":")[-1].split("(")[0].strip()


@needs_compiler
def test_the_kernel_loads_where_a_compiler_exists():
    assert assembler._kernel() is not None


@needs_compiler
@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (0.5, 0.5)])
def test_kernel_wires_like_pair_on_random_phases(shape, monkeypatch):
    # both modes on the same nodes, several communities: the same links,
    # repairs, error texts, final generator state and Beta variates read on
    # both paths, so the two loops ask for blocks at the same points.  Every
    # fifth trial is dense, so that phases dead-end, run out of candidates
    # or exhaust their repair budget; every seventh has a negative count.
    # "stubs left unpaired" cannot be reached: every position with open
    # stubs is on the heap, and its fill ends only at 0 open stubs or an error.
    assert assembler._kernel() is not None
    gen = np.random.default_rng(89)
    ends = Counter()
    for trial in range(200):
        n = int(gen.integers(1, 30))
        k = int(gen.integers(1, 5))
        ids = gen.permutation(3 * n)[:n].tolist()
        community = gen.integers(0, k, n).tolist()
        stubs = gen.integers(0, n if trial % 5 == 0 else 6, n).tolist()
        if trial % 7 == 3:
            stubs[int(gen.integers(n))] = -2
        total = [abs(s) + int(gen.integers(0, 4)) for s in stubs]
        nodes = list(zip(ids, total, stubs, community))
        for wire in (wire_intra, wire_inter):
            outcomes = []
            for kernel in (assembler._kernel(), None):
                with monkeypatch.context() as patch:
                    patch.setattr(assembler, "_kernel", lambda kernel=kernel: kernel)
                    rng = CountingGenerator(np.random.default_rng(7000 + trial))
                    result, state = _outcome(wire, nodes, ShapeParams(*shape), rng)
                    outcomes.append((result, state, rng.variates))
            assert outcomes[0] == outcomes[1], (trial, wire.__name__)
            ends[_kind(outcomes[0][0])] += 1
    kinds = {
        "plain",
        "repaired",
        "odd number of stubs in a wiring phase",
        "negative stub count",
        "no candidate links to rewire",
        "wiring repair budget",
    }
    assert kinds <= set(ends) and min(ends.values()) >= 5, ends


def test_the_status_codes_and_state_slots_are_the_kernel_sources():
    # the two enums of _fill.c, in order, against the names assembler gives
    # them: _pair returns the codes, and _fill reads the slots of both loops
    enums = re.findall(r"^enum \{ (.*) \};$", assembler._FILL_SOURCE.read_text(), re.M)
    assert [names.split(", ") for names in enums] == [
        ["DONE", "BLOCK", "REPAIR", "UNPAIRED", "BROKEN"],
        ["PHASE", "NODE", "USED", "READ", "QUEUED", "PICK_W", "PICK_V"],
    ]
    for names in enums:
        codes = [getattr(assembler, f"_{name}") for name in names.split(", ")]
        assert codes == list(range(len(codes))), names


# ---------------------------------------------------------------------------
# the export's text
# ---------------------------------------------------------------------------

# the kinds of bytes in the export's pieces, and %d
_TOKENS = (b"%d", b"%d", b",", b"[", b")", b"<", b'"', b"\n", b"n", b"; ", b"Undirected")
_EXTREMES = np.array([0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)], dtype=np.int64)


@needs_compiler
def test_format_writes_what_the_bytes_format_writes():
    # random piece tables with empty pieces and pieces of no, one or several
    # %d; every tenth block has no code, and half the values are extremes
    assert assembler._kernel() is not None
    rng = np.random.default_rng(29)
    for trial in range(400):
        pieces = tuple(
            b"".join(rng.choice(_TOKENS, int(rng.integers(0, 6))).tolist())
            for _ in range(int(rng.integers(1, 7)))
        )
        table = output._table(pieces)
        code = rng.integers(0, len(pieces), int(rng.integers(1, 60)) if trial % 10 else 0)
        ends = rng.choice(_EXTREMES, sum(pieces[c].count(b"%d") for c in code.tolist()))
        wide = rng.integers(-(2**63), 2**63 - 1, ends.size, dtype=np.int64, endpoint=True)
        flat = np.where(rng.random(ends.size) < 0.5, ends, wide >> rng.integers(0, 64, ends.size))
        want = b"".join(pieces[c] for c in code.tolist()) % tuple(flat.tolist())
        got = io.BytesIO()
        output._write_block(got, table, code, flat[:, None], np.ones((flat.size, 1), dtype=bool))
        assert got.getvalue() == want, (trial, pieces, code, flat)


def test_the_export_pieces_hold_no_directive_but_percent_d():
    # %d is the only directive temponet_format reads
    for piece in output._EDGE_PIECES + output._NODE_PIECES:
        assert b"%" not in piece.replace(b"%d", b""), piece


class CountingGenerator:
    """A generator that counts the Beta variates read from it."""

    def __init__(self, rng):
        self.rng, self.variates = rng, 0

    def beta(self, a, b, size):
        self.variates += size
        return self.rng.beta(a, b, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("path", ["kernel", "python"])
def test_a_repair_reads_at_most_one_block_of_extra_variates(path, monkeypatch):
    # inter phases of several blocks of draws, biased toward high degrees so
    # that they repair: the links and the final state equal the reference's,
    # which reads one variate per draw, and the variates read exceed the
    # draws by at most one block per repair and one more
    if path == "python":
        monkeypatch.setattr(assembler, "_kernel", lambda: None)
    elif assembler._kernel() is None:
        pytest.skip("no compiled kernel")
    block = assembler.VARIATE_BLOCK
    gen = np.random.default_rng(101)
    repaired = 0
    for trial in range(3):
        n = int(gen.integers(600, 1200))
        stubs = gen.integers(0, 41, n).tolist()
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        community = gen.integers(0, 3, n).tolist()
        degree = [s + int(gen.integers(0, 100)) for s in stubs]
        shape = ShapeParams(30, 1)
        rng = np.random.default_rng(400 + trial)
        entries = [(i, degree[i], stubs[i]) for i in range(n)]
        community_of = dict(enumerate(community))
        links, repairs = reference_wire_phase(entries, shape, rng, 50 * n, community_of)
        want = rng.bit_generator.state
        counting = CountingGenerator(np.random.default_rng(400 + trial))
        nodes = [(i, degree[i], stubs[i], community[i]) for i in range(n)]
        rows, got_repairs = wire_inter(*node_columns(nodes), shape, counting)
        assert set(map(tuple, rows.tolist())) == links and got_repairs == repairs, trial
        assert counting.rng.bit_generator.state == want, trial
        draws = sum(stubs) // 2
        assert draws > 2 * block
        assert counting.variates <= draws + (repairs + 1) * block, (trial, counting.variates)
        repaired += repairs > 0
    assert repaired


# ---------------------------------------------------------------------------
# the build cache
# ---------------------------------------------------------------------------


def _phase():
    """An inter phase that needs repairs, as node rows."""
    gen = np.random.default_rng(5)
    stubs = gen.integers(0, 12, 60).tolist()
    stubs[0] += sum(stubs) % 2
    return [(i, s + 3, s, i % 4) for i, s in enumerate(stubs)]


def _digest() -> str:
    """The sha256 of the outcome of wiring ``_phase`` from seed 1 and of
    its links written as the edge rows of one snapshot."""
    outcome = _outcome(wire_inter, _phase(), ShapeParams(), np.random.default_rng(1))
    values = np.zeros((len(outcome[0][0]), 4), dtype=np.int64)
    values[:, :2], values[:, 3] = outcome[0][0], 1  # (u, v, 0, 1)
    text = io.BytesIO()
    code = np.full(len(values), 3)  # each row its key's first and last run
    output._write_block(text, output._EDGE_TABLE, code, values, np.ones(values.shape, dtype=bool))
    return hashlib.sha256(repr(outcome).encode() + text.getvalue()).hexdigest()


def _child(tmp_path, **env) -> tuple[bool, str]:
    """Whether a new process with its cache under ``tmp_path`` loads the
    kernel, and its ``_digest()``."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), **env)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(Path(__file__).parent)))
    code = (
        "from temponet import assembler; from test_fill import _digest; "
        "print(assembler._kernel() is not None, _digest())"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded, digest = done.stdout.split()
    return loaded == "True", digest


@needs_compiler
def test_a_second_process_loads_the_cached_build_without_compiling(tmp_path):
    # a cc first on PATH that logs each call before it runs the real one
    spy = tmp_path / "bin"
    spy.mkdir()
    log, cc = tmp_path / "cc.log", shutil.which("cc")
    (spy / "cc").write_text(f'#!/bin/sh\necho "$@" >> {log}\nexec {cc} "$@"\n')
    (spy / "cc").chmod(0o755)
    path = f"{spy}{os.pathsep}{os.environ['PATH']}"
    for run in (1, 2):
        assert _child(tmp_path, PATH=path) == (True, _digest()), run
        assert len(log.read_text().splitlines()) == 1, run
    assert [p.suffix for p in (tmp_path / "cache" / "temponet").iterdir()] == [".so"]


@needs_compiler
def test_a_truncated_cached_build_is_built_again(tmp_path):
    # a process builds the kernel; with its build cut to half, the next
    # process builds it again and wires as before.  Neither writes into
    # the package's folder.  (The loader is tested in new processes: one
    # that has loaded a library would get it back for the same path.)
    package = sorted(Path(assembler.__file__).parent.iterdir())
    assert _child(tmp_path) == (True, _digest())
    (library,) = (tmp_path / "cache" / "temponet").iterdir()
    whole = library.read_bytes()
    library.write_bytes(whole[: len(whole) // 2])
    assert _child(tmp_path) == (True, _digest())
    rebuilt = library.read_bytes()
    assert hashlib.sha256(rebuilt[:-32]).digest() == rebuilt[-32:]
    assert sorted(Path(assembler.__file__).parent.iterdir()) == package


def test_an_unwritable_cache_falls_back_with_one_warning(tmp_path, monkeypatch, caplog):
    # the cache home is a plain file, so no build can be written under it,
    # whoever runs the test; the loader starts afresh, and the links and
    # their text are those of the kernel where one is loaded
    want = _digest()
    (tmp_path / "cache").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assembler._kernel.cache_clear()
    caplog.set_level("WARNING", logger="temponet.assembler")
    try:
        for _ in range(3):
            assert _digest() == want
        assert assembler._kernel() is None
    finally:
        assembler._kernel.cache_clear()
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1, warnings
    assert "Python fill loop" in warnings[0].getMessage()
    assert "% format" in warnings[0].getMessage()
