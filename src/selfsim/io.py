"""Deterministic result files: CSV tables, JSON envelopes, plot scripts.

Every write is atomic (temp file in the target directory, then rename) so
re-runs never observe torn files.  Identical configurations must produce
byte-identical outputs: floats are serialized with repr (shortest
round-trip form), JSON keys are sorted, and nothing volatile (timestamps,
wall time) enters the files.

CSV tables arrive either as a 2-D float array (the grid-sized tables) or
as a sequence of row tuples (the small ones).  Both are formatted a block
of rows at a time, column by column, so a 2^20-row table never exists as
2^20 row tuples; either form gives the same bytes for the same values.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
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


def atomic_write_text(path: str, text: str) -> None:
    """Write text via a temp file in the target directory plus rename; the
    file gets the mode open(path, "w") would give it, not the temp's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            umask = os.umask(0)  # reading the umask means setting it; put it back
            os.umask(umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def _format_cell(value) -> str:
    # canonicalize numpy scalars so cells carry the shortest round-trip form
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv_block(block, width: int, path: str) -> str:
    """The lines of one block of rows, without a trailing newline."""
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        # tolist() yields Python floats, whose repr is the shortest round trip
        columns = [map(repr, col) for col in block.T.tolist()]
    else:
        for row_width in map(len, block):
            if row_width != width:
                raise IoError(f"row width {row_width} != header width {width} in {path}")
        columns = [map(_format_cell, col) for col in zip(*block)]
    return "\n".join(map(",".join, zip(*columns)))


def write_csv_atomic(path: str, header: list[str], rows) -> None:
    """CSV with LF endings and full round-trip float precision.

    ``rows`` is a 2-D float64 array of shape ``(n_rows, len(header))`` or
    a sequence of row tuples; ``len(rows)`` is the number of rows.  Rows
    are formatted a block at a time, column by column, and both forms give
    the same bytes for the same values.  A row whose width differs from
    the header's raises ``IoError`` before anything is written.
    """
    if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != len(header)):
        raise IoError(f"table shape {rows.shape} does not match header width {len(header)} in {path}")
    chunks = [",".join(header)]
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        chunks.append(_csv_block(rows[start:start + _CSV_BLOCK_ROWS], len(header), path))
    chunks.append("")
    text = "\n".join(chunks)
    del chunks  # free the block strings before the write encodes the text
    atomic_write_text(path, text)


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
