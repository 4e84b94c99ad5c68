"""Deterministic result files: CSV tables, JSON envelopes, plot scripts.

Every write is atomic (temp file in the target directory, then rename) so
re-runs never observe torn files.  Identical configurations must produce
byte-identical outputs: floats are serialized in their shortest round-trip
form, exactly as repr writes them, JSON keys are sorted, and nothing
volatile (timestamps, wall time) enters the files.

CSV tables arrive either as a 2-D float array (the grid-sized tables) or
as a sequence of row tuples (the small ones).  Both are formatted a block
of rows at a time and each block's bytes are streamed into the temp file,
so a 2^20-row table never exists as 2^20 row tuples or as one string.  A
float64 array's cells come from a vectorized shortest-round-trip kernel
(``_shortest``) whose bytes equal repr's; row tuples are formatted cell by
cell with repr, so either form gives the same bytes for the same values.
A float array of more than one block is split into
contiguous row ranges, one per available core: forked workers format the
later ranges into part files beside the target while this process
formats the first, and the parts are then appended in order.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _shortest
from .errors import IoError

__all__ = [
    "ResultEnvelope",
    "atomic_write_text",
    "config_hash",
    "write_csv_atomic",
    "write_json_atomic",
    "plot_script",
    "commit",
]

# rows formatted per block: bounds the per-row Python objects alive at once
_CSV_BLOCK_ROWS = 1 << 15


def canonical_config(config: dict) -> dict:
    """The scientifically meaningful part of a config: output location
    stripped, so determinism is judged on what was computed, not where it
    was written."""
    return {k: v for k, v in config.items() if k != "out"}


def config_hash(config: dict) -> str:
    """sha256 of the canonical (sorted, repr-float) JSON encoding."""
    blob = json.dumps(canonical_config(config), sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ResultEnvelope:
    """What a command produced: inputs echoed, scalars, and its files as
    ``{name: writer}``, where ``writer(path)`` writes that file to ``path``.

    Wall time is intentionally not stored (it would break byte-for-byte
    determinism); the CLI reports it on stderr instead.
    """

    command: str
    config: dict
    results: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": canonical_config(self.config),
            "config_sha256": config_hash(self.config),
            "results": self.results,
            "seed": self.seed,
            "tables": sorted(self.files),
            "version": __version__,
        }


def _atomic_write(path: str, write) -> None:
    """Call ``write(fh)`` on a binary temp file in the target directory,
    then rename it over ``path``; the file gets the mode open(path, "w")
    would give it, not the temp's 0600.  OS errors become ``IoError``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            umask = os.umask(0)  # reading the umask means setting it; put it back
            os.umask(umask)
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write text (UTF-8, newlines as given) atomically."""
    _atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))


def _format_cell(value) -> str:
    # canonicalize numpy scalars so cells carry the shortest round-trip form
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv_block(block, width: int, path: str) -> bytes:
    """The CSV lines of one block of rows, each ending in a newline."""
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        return _shortest.csv_bytes(block)
    for row_width in map(len, block):
        if row_width != width:
            raise IoError(f"row width {row_width} != header width {width} in {path}")
    columns = [map(_format_cell, col) for col in zip(*block)]
    return ("\n".join(map(",".join, zip(*columns))) + "\n").encode("utf-8")


def _write_rows(fh, rows, lo: int, hi: int, width: int, path: str) -> None:
    """Rows lo..hi-1 as CSV lines, streamed into fh a block at a time."""
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        fh.write(_csv_block(rows[start:min(start + _CSV_BLOCK_ROWS, hi)], width, path))


def _fork_workers() -> int:
    """How many processes to spread work over: one per core this process
    may run on, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(rows) -> list[tuple[int, int]]:
    """Contiguous, block-aligned row ranges, one per worker: one per core
    for a float array, at most one per block, and one where the platform
    cannot fork or the rows are tuples."""
    n_blocks = -(-len(rows) // _CSV_BLOCK_ROWS)
    workers = 1
    if isinstance(rows, np.ndarray):
        workers = max(1, min(_fork_workers(), n_blocks))
    bounds = [i * n_blocks // workers * _CSV_BLOCK_ROWS for i in range(workers)] + [len(rows)]
    return list(zip(bounds, bounds[1:]))


@contextlib.contextmanager
def _fork_without_warning():
    """Python >= 3.12 warns when a process with threads forks, since the
    child could inherit a lock that another thread held.  selfsim starts
    no thread of its own before it forks; the threads a numpy process has
    are BLAS workers, which OpenBLAS shuts down before a fork."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message=r"This process .* is multi-threaded, use of fork\(\)")
        yield


def _fork() -> int:
    # The child only formats floats into its part file and leaves through
    # os._exit.
    with _fork_without_warning():
        return os.fork()


def _format_part(fd: int, rows, lo: int, hi: int, width: int, path: str):
    """In a forked child: write rows lo..hi-1 to fd, then exit with 0, or
    with 1 on any failure.  os._exit flushes no buffer inherited from the
    parent and runs none of its cleanup."""
    status = 1
    try:
        with os.fdopen(fd, "wb") as fh:
            _write_rows(fh, rows, lo, hi, width, path)
        status = 0
    finally:
        os._exit(status)


def _write_ranges(fh, rows, width: int, path: str) -> None:
    """All rows into fh: the first range here while forked children write
    the others into part files, which are then appended in row order.  On
    every exit no child is left running or unreaped and no part is left."""
    (lo, hi), *others = _row_ranges(rows)
    directory = os.path.dirname(os.path.abspath(path))
    children = []  # [pid or None once reaped, part file, first row, end row]
    try:
        for part_lo, part_hi in others:
            fd, part = tempfile.mkstemp(dir=directory, prefix=".part-")
            child = [None, part, part_lo, part_hi]
            children.append(child)
            try:
                child[0] = _fork()
                if child[0] == 0:
                    _format_part(fd, rows, part_lo, part_hi, width, path)
            finally:
                os.close(fd)
        _write_rows(fh, rows, lo, hi, width, path)
        for child in children:
            pid, part, part_lo, part_hi = child
            _, status = os.waitpid(pid, 0)
            child[0] = None
            if status != 0:
                raise IoError(f"formatting rows {part_lo}..{part_hi - 1} of {path} failed "
                              f"in a worker (exit status {os.waitstatus_to_exitcode(status)})")
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh, 1 << 20)
    finally:
        for pid, part, _, _ in children:
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            with contextlib.suppress(OSError):
                os.unlink(part)


def write_csv_atomic(path: str, header: list[str], rows, preamble: str | None = None) -> None:
    """CSV with LF endings and full round-trip float precision.

    ``rows`` is a 2-D float64 array of shape ``(n_rows, len(header))`` or
    a sequence of row tuples; ``len(rows)`` is the number of rows.  Rows
    are formatted a block at a time, and both forms give the same bytes for
    the same values.  ``preamble``, if given, is one line written before
    the header.  A table without columns, or whose width differs from the
    header's, raises ``IoError`` and leaves no file.
    """
    if not header:
        raise IoError(f"no columns in {path}")
    if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != len(header)):
        raise IoError(f"table shape {rows.shape} does not match header width {len(header)} in {path}")

    head = ",".join(header) + "\n"
    if preamble is not None:
        head = preamble + "\n" + head

    def write(fh):
        fh.write(head.encode("utf-8"))
        _write_ranges(fh, rows, len(header), path)

    _atomic_write(path, write)


def _json_default(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


def write_json_atomic(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n")


def plot_script(title: str, csv_name: str, columns: list[str], loglog: bool = False,
                annotations: dict | None = None) -> str:
    """Plain-text gnuplot script plotting each of ``columns`` (CSV columns
    2, 3, ...) against column 1 of the CSV, referenced by relative path."""
    lines = [
        "# generated plot script; render with: gnuplot <this file>",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
    ]
    if loglog:
        lines.append("set logscale xy")
    for key, val in (annotations or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append("plot " + ", ".join(f"'{csv_name}' using 1:{i + 2} with lines"
                                     for i in range(len(columns))))
    return "\n".join(lines) + "\n"


def commit(envelope: ResultEnvelope, out_dir: str) -> None:
    """Write the envelope's files, then the envelope as ``<command>.json``,
    into a stage directory under ``out_dir`` and rename each into place.
    A failure removes the files already renamed (an earlier run's file of
    the same name is not restored) and raises ``IoError`` for OS errors."""
    files = dict(envelope.files)
    files[f"{envelope.command}.json"] = lambda path: write_json_atomic(path, envelope.to_dict())
    renamed = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        stage = tempfile.mkdtemp(dir=out_dir, prefix=".stage-")
        try:
            for name, write in files.items():
                write(os.path.join(stage, name))
            for name in files:
                os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
                renamed.append(name)
        except BaseException:
            for name in renamed:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(out_dir, name))
            raise
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except IoError:  # a writer's own failure, already named and wrapped
        raise
    except OSError as exc:
        raise IoError(f"failed to commit into {out_dir}: {exc}") from exc
