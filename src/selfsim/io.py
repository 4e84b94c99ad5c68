"""Deterministic result files: CSV tables, JSON envelopes, plot scripts.

Every write is atomic (temp file in the target directory, then rename) so
re-runs never observe torn files.  Identical configurations must produce
byte-identical outputs: floats are serialized in their shortest round-trip
form, exactly as repr writes them, JSON keys are sorted, and nothing
volatile (timestamps, wall time) enters the files.

A CSV table is its columns, equal-length 1-D float64 arrays that are never
stacked into one 2-D copy.  It is formatted a block of 2^13 rows at a time,
and each block's bytes are streamed into the temp file, so a 2^20-row table
never exists as one string.  Cells come from a vectorized shortest-round-
trip kernel (``_shortest``) whose bytes equal repr's.  A table of more
than one full block and more than 2^17 cells (rows x columns) is split
into contiguous row ranges, one per available core and per started 2^17
cells: a bare fork of this process per later range formats that range into
a part file beside the target while this process formats the first; the
parts are appended in order.
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

# rows per CSV block: bounds the kernel's temporaries, and is the unit of
# the row ranges that forked children write (a 2^20 x 2 table took 642 ms
# in process with 2^13-row blocks against 675 ms with 2^15, medians of 7)
_CSV_BLOCK_ROWS = 1 << 13
# cells (rows x columns) per CSV process: a table of up to 2^17 cells is
# formatted in this process, where a fork costs about what it saves
# (medians of 11 writes beside a 2^20-point table's heap, 2-core x86-64:
# 65536 x 4 cells took 66 ms forked against 90 here, 65536 x 3 took 44.5
# against 61, 65536 x 2 took 35 against 44, and 65536 x 1 took 22.0
# against 20.7)
_CSV_CELLS_PER_WORKER = 1 << 17


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


def _cores() -> int:
    """How many cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(n_rows: int, n_columns: int) -> list[tuple[int, int]]:
    """Contiguous, block-aligned row ranges, one per process: one per core,
    at most one per full block and per started 2^17 cells, and one where
    the platform cannot fork.  The last range takes the rows after the
    last full block."""
    cores = _cores() if hasattr(os, "fork") else 1
    n_blocks = n_rows // _CSV_BLOCK_ROWS
    ranges = max(1, min(cores, n_blocks, -(-n_rows * n_columns // _CSV_CELLS_PER_WORKER)))
    bounds = [i * n_blocks // ranges * _CSV_BLOCK_ROWS for i in range(ranges)] + [n_rows]
    return list(zip(bounds, bounds[1:]))


def _fork_range(columns, lo: int, hi: int, part: str):
    """Fork a child that formats rows lo..hi-1 into the file part: its pid
    and the read end of its error pipe, or None where the fork fails.  The
    child ignores ^C (the parent kills it on any exit) and leaves through
    os._exit, never flushing a buffer it inherited: status 0 once its part
    is written, status 1 after writing its error text to the pipe."""
    read, write = os.pipe()
    try:
        # Python >= 3.12 warns when a process with threads forks: the child
        # could inherit a lock another thread held.  selfsim starts no
        # thread, so none of its own runs here; a numpy process's threads
        # are BLAS workers, which OpenBLAS stops first.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", category=DeprecationWarning,
                                    message=r"This process .* is multi-threaded, use of fork\(\)")
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            with open(part, "wb") as fh:
                _write_rows(fh, columns, lo, hi)
            status = 0
        except Exception as exc:
            # bounded, so that the pipe holds it while the parent waits for this child
            with contextlib.suppress(OSError):
                os.write(write, f"{type(exc).__name__}: {exc}"[:1000].encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _write_ranges(fh, columns, path: str) -> None:
    """All rows into fh: the first range here while forked children, one
    per other range, write the others into part files, which are then
    appended in row order; a range whose fork fails is formatted here in
    its turn.  A child inherits the columns through its fork, so they are
    never copied.  On every exit each child still running is killed and
    every child is reaped, and no part is left."""
    (lo, hi), *others = _row_ranges(len(columns[0]), len(columns))
    directory = os.path.dirname(os.path.abspath(path))
    parts, children, pipes = [], {}, {}  # by row range: pid until reaped, error pipe
    try:
        for rows in others:
            fd, part = tempfile.mkstemp(dir=directory, prefix=".part-")
            os.close(fd)
            parts.append(part)
            forked = _fork_range(columns, *rows, part)
            if forked:
                children[rows], pipes[rows] = forked
        _write_rows(fh, columns, lo, hi)
        for rows, part in zip(others, parts):
            if rows not in pipes:  # its fork failed
                _write_rows(fh, columns, *rows)
                continue
            status = os.waitpid(children[rows], 0)[1]
            del children[rows]
            if status:
                code = os.waitstatus_to_exitcode(status)
                error = (os.read(pipes[rows], 1 << 12).decode("utf-8", "replace")
                         or (f"killed by signal {-code}" if code < 0 else f"exit status {code}"))
                raise IoError(f"formatting rows {rows[0]}..{rows[1] - 1} of {path} "
                              f"failed in a forked process: {error}")
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh, 1 << 20)
    finally:
        for pid in children.values():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes.values():
            os.close(pipe)
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
