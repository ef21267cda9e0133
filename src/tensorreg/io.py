"""File formats: TNSR binary tensor stacks, CSV schemas, PGM images.

TNSR stack layout (all integers little-endian):

    bytes 0..3    magic ``TNSR``
    bytes 4..7    uint32 sample count n
    bytes 8..11   uint32 mode count D
    next 4*D      uint32 dims p_1 .. p_D
    rest          n * prod(dims) float64 values, each sample in vec order

CSV files carry a header row; the response file has the single column
``y``, the covariate file one named column per ordinary covariate.  Study
tables use the fixed schema in :data:`tensorreg.shapes.STUDY_COLUMNS`.
A data row of the wrong width, or a cell that is not a number, is a
ParseError naming the file and the row's 1-based line.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

from .errors import DomainError, ParseError
from .shapes import STUDY_COLUMNS
from .tensor_core import stack_vec, unstack_vec

__all__ = [
    "write_tensor_file",
    "parse_tensor_file",
    "read_response_csv",
    "write_response_csv",
    "read_covariates_csv",
    "write_covariates_csv",
    "write_study_csv",
    "write_trace_csv",
    "write_bic_table_csv",
    "write_pgm",
]

_MAGIC = b"TNSR"


def write_tensor_file(path, tensors):
    """Write a stack of equal-dims tensors (or an (n, ...) array) as TNSR."""
    dims, rows = stack_vec(tensors)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", rows.shape[0], len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(np.ascontiguousarray(rows, dtype="<f8").data)


def parse_tensor_file(path):
    """Read a TNSR stack as an ``(n, p_1, ..., p_D)`` float64 array.

    The array views one freshly read, aligned payload in vec order, so
    :class:`tensorreg.model.TensorGlmDataset` takes it without a copy.
    Strict: wrong magic, impossible headers, and truncated or oversized
    payloads are all :class:`ParseError` with the offending byte counts.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != _MAGIC:
            raise ParseError(
                f"{path}: bad magic {head[:4]!r} at byte 0 (expected {_MAGIC!r})"
            )
        if size < 12:
            raise ParseError(f"{path}: truncated header ({size} bytes, need 12)")
        n, ndim = struct.unpack_from("<II", head, 4)
        if n < 1 or ndim < 1:
            raise ParseError(f"{path}: invalid header n={n}, D={ndim} at byte 4")
        dims_end = 12 + 4 * ndim
        if size < dims_end:
            raise ParseError(
                f"{path}: truncated dims block ({size} bytes, need {dims_end})"
            )
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        if any(p < 1 for p in dims):
            raise ParseError(f"{path}: nonpositive dimension in {dims} at byte 12")
        per = math.prod(dims)
        expected = dims_end + 8 * per * n
        if size != expected:
            raise ParseError(
                f"{path}: payload is {size - dims_end} bytes, dims {tuple(dims)} "
                f"x {n} samples require {expected - dims_end}"
            )
        # Read into a fresh array: the payload offset 12 + 4D is not
        # 8-byte aligned for even D, and BLAS would copy a misaligned view.
        rows = np.empty((n, per), dtype="<f8")
        if fh.readinto(rows) != rows.nbytes:
            raise ParseError(f"{path}: file shrank while its payload was read")
    return unstack_vec(rows, dims)


def _read_csv(path):
    """The header of a CSV file and its data rows as a float matrix.

    A data row whose field count differs from the header's (a blank line
    has none), or a cell that is not a number, is a ParseError naming its
    1-based line.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty CSV")
        width = len(header)
        values = []
        n = 0
        for n, row in enumerate(reader, start=1):
            if len(row) != width:
                raise ParseError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {width}"
                )
            try:
                values.extend(map(float, row))
            except ValueError as err:
                raise ParseError(f"{path}: line {reader.line_num}: {err}") from None
    return header, np.array(values, dtype=np.float64).reshape(n, width)


def _write_csv(path, header, rows):
    """Write a header and rows.  ``csv.writer`` writes a Python float cell
    as its ``repr`` (the shortest text that reads back the same value) and
    ``None`` as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_response_csv(path):
    """Read the single-column response file (header ``y``)."""
    header, data = _read_csv(path)
    if [c.strip() for c in header] != ["y"]:
        raise ParseError(f"{path}: expected header 'y', got {header!r}")
    return data[:, 0]


def write_response_csv(path, y):
    _write_csv(path, ["y"], np.asarray(y, dtype=np.float64).reshape(-1, 1).tolist())


def read_covariates_csv(path):
    """Read the named-column covariate file; returns (names, (n, p0) array)."""
    header, data = _read_csv(path)
    names = [c.strip() for c in header]
    if not names or any(not c for c in names):
        raise ParseError(f"{path}: covariate header must name every column")
    return names, data


def write_covariates_csv(path, z):
    """Write an ``(n, p0)`` covariate matrix with columns ``z1 .. z<p0>``."""
    z = np.asarray(z, dtype=np.float64)
    _write_csv(path, [f"z{j + 1}" for j in range(z.shape[1])], z.tolist())


def write_study_csv(path, rows):
    """Write study rows with the fixed schema, deterministically."""
    _write_csv(path, STUDY_COLUMNS, (
        [r["shape"], r["n"], r["param"], float(r["mean_rmse"]),
         float(r["sd_rmse"]), r["rank_selected_mode"]]
        for r in rows
    ))


def write_trace_csv(path, trace):
    _write_csv(path, ["iteration", "objective"],
               ([i, float(v)] for i, v in enumerate(trace)))


def write_bic_table_csv(path, table):
    """Write :func:`tensorreg.model.select_rank`'s table, one row per rank.

    A rank whose fit failed has empty ``bic`` and ``loglik`` cells and its
    error message in ``error``.
    """
    _write_csv(path, ["rank", "bic", "loglik", "converged", "error"], (
        [r[k] for k in ("rank", "bic", "loglik", "converged", "error")]
        for r in table
    ))


def write_pgm(path, matrix, comment=""):
    """Write a matrix as an 8-bit binary PGM, min-max scaled per image.

    A NaN or infinite entry is a DomainError naming its index.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DomainError(f"PGM needs a 2-d array, got ndim={m.ndim}")
    bad = ~np.isfinite(m)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), m.shape)
        raise DomainError(f"PGM entry ({i}, {j}) is {m[i, j]}, not finite")
    lo, hi = float(m.min()), float(m.max())
    scaled = np.zeros_like(m) if hi == lo else (m - lo) / (hi - lo)
    pixels = np.round(255.0 * scaled).astype(np.uint8)
    header = f"P5\n# min-max scaled: min={lo!r} max={hi!r} {comment}\n"
    header += f"{m.shape[1]} {m.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())
