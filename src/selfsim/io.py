"""Deterministic result files: CSV tables, JSON envelopes, plot scripts.

Every write is atomic (temp file in the target directory, then rename) so
re-runs never observe torn files.  Identical configurations must produce
byte-identical outputs: floats are serialized in their shortest round-trip
form, exactly as repr writes them, JSON keys are sorted, and nothing
volatile (timestamps, wall time) enters the files.

A CSV table is its columns, equal-length 1-D float64 arrays that are never
stacked into one 2-D copy.  It is formatted a block of rows at a time, and
each block's bytes are streamed into the temp file, so a 2^20-row table
never exists as one string.  Cells come from a vectorized shortest-round-
trip kernel (``_shortest``) whose bytes equal repr's.  A table of more
than one block and more than 2^18 cells (rows x columns) is split into
contiguous row ranges, one per available core and per started 2^18
cells: forked workers, one per later range, format those ranges into
part files beside the target while this process formats the first; the
parts are appended in order.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _shortest, grids
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

# rows per CSV block: bounds the bytes of one formatted block, and is the
# unit of the row ranges that forked workers write
_CSV_BLOCK_ROWS = 1 << 15
# cells (rows x columns) per CSV worker: a table of up to 2^18 cells is
# formatted in this process, where the fork costs more than it saves
# (medians of 11 alternating writes beside a 120 MB heap, 2-core x86-64:
# 65536 x 4 cells took 68 ms here against 75 forked, 131072 x 3 took 135
# against 90)
_CSV_CELLS_PER_WORKER = 1 << 18


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


def _write_rows(fh, columns, lo: int, hi: int) -> None:
    """Rows lo..hi-1 as CSV lines, streamed into fh a block at a time."""
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        block = slice(start, min(start + _CSV_BLOCK_ROWS, hi))
        fh.write(_shortest.csv_bytes([column[block] for column in columns]))


def _fork_workers() -> int:
    """How many processes to spread work over: one per core this process
    may run on, and one where the platform cannot fork."""
    return grids._cores() if hasattr(os, "fork") else 1


def _row_ranges(n_rows: int, n_columns: int) -> list[tuple[int, int]]:
    """Contiguous, block-aligned row ranges, one per worker: one per core,
    at most one per block and per started 2^18 cells, and one where the
    platform cannot fork."""
    n_blocks = -(-n_rows // _CSV_BLOCK_ROWS)
    workers = max(1, min(_fork_workers(), n_blocks, -(-n_rows * n_columns // _CSV_CELLS_PER_WORKER)))
    bounds = [i * n_blocks // workers * _CSV_BLOCK_ROWS for i in range(workers)] + [n_rows]
    return list(zip(bounds, bounds[1:]))


def _trim_free_heap() -> None:
    """Hand the free heap back to the kernel (glibc's malloc_trim(0)); where
    the C library has no malloc_trim, nothing."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # no such C library call
        return
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    trim(0)


_pool_columns = None  # in a CSV worker: the columns of the table it formats


def _start_worker(columns) -> None:
    """Pool initializer.  A worker ignores ^C: the pool's owner stops it on
    any exit, once the range it formats is done.  It trims the free heap
    its fork inherited (grids keeps up to 128 MiB resident), so the pages
    it writes there are not each faulted in and copied.  It formats bytes
    only and makes no spectral call."""
    global _pool_columns
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _trim_free_heap()
    _pool_columns = columns


def _format_part(lo: int, hi: int, part: str) -> None:
    """In a CSV worker: rows lo..hi-1 of the pool's columns into part."""
    with open(part, "wb") as fh:
        _write_rows(fh, _pool_columns, lo, hi)


def _write_ranges(fh, columns, path: str) -> None:
    """All rows into fh: the first range here while forked workers, one per
    other range, write the others into part files, which are then appended
    in row order.  A worker inherits the columns through its fork, so they
    are never pickled.  On every exit the ranges not started are cancelled,
    every worker has finished and is reaped, and no part is left."""
    (lo, hi), *others = _row_ranges(len(columns[0]), len(columns))
    if not others:
        _write_rows(fh, columns, lo, hi)
        return
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    directory = os.path.dirname(os.path.abspath(path))
    pool = ProcessPoolExecutor(len(others), mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(columns,))
    parts = []
    try:
        for _ in others:
            fd, part = tempfile.mkstemp(dir=directory, prefix=".part-")
            os.close(fd)
            parts.append(part)
        futures = []
        # The workers fork at the first submit.  Python >= 3.12 warns when a
        # process with threads forks: the child could inherit a lock another
        # thread held.  No selfsim thread outlives a spectral call (grids
        # joins its helper before the call returns), so none runs here; a
        # numpy process's threads are BLAS workers, which OpenBLAS stops first.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", category=DeprecationWarning,
                                    message=r"This process .* is multi-threaded, use of fork\(\)")
            for (part_lo, part_hi), part in zip(others, parts):
                try:
                    future = pool.submit(_format_part, part_lo, part_hi, part)
                except BrokenProcessPool as exc:  # a worker died already
                    future = Future()
                    future.set_exception(exc)
                futures.append(future)
        _write_rows(fh, columns, lo, hi)
        for (part_lo, part_hi), part, future in zip(others, parts, futures):
            try:
                future.result()
            except Exception as exc:  # the range raised, or its worker died
                raise IoError(f"formatting rows {part_lo}..{part_hi - 1} of {path} "
                              f"failed in a worker: {exc}") from exc
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh, 1 << 20)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for part in parts:
            with contextlib.suppress(OSError):
                os.unlink(part)


def write_csv_atomic(path: str, header: list[str], *columns, preamble: str | None = None) -> None:
    """CSV with LF endings and full round-trip float precision.

    ``columns`` are one 1-D float64 array per header name, all of one
    length (strided views, such as the parts of a complex array, too),
    formatted a block of rows at a time.  ``preamble``, if given, is one
    line written before the header.  Any other input, or a table without
    columns, raises ``IoError`` and leaves no file.
    """
    if not header:
        raise IoError(f"no columns in {path}")
    if not (len(columns) == len(header)
            and all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1
                    and len(c) == len(columns[0]) for c in columns)):
        raise IoError(f"columns are not {len(header)} 1-D float64 arrays of one length in {path}")

    head = ",".join(header) + "\n"
    if preamble is not None:
        head = preamble + "\n" + head

    def write(fh):
        fh.write(head.encode("utf-8"))
        _write_ranges(fh, columns, path)

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
