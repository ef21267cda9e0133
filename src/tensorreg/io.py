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


def _read_csv_rows(path):
    """The rows of a CSV file, header first.

    A data row whose field count differs from the header's (a blank line
    has none) is a ParseError naming its 1-based line.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = []
        for row in reader:
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty CSV")
    return rows


def read_response_csv(path):
    """Read the single-column response file (header ``y``)."""
    rows = _read_csv_rows(path)
    if [c.strip() for c in rows[0]] != ["y"]:
        raise ParseError(f"{path}: expected header 'y', got {rows[0]!r}")
    try:
        return np.array([float(r[0]) for r in rows[1:]], dtype=np.float64)
    except ValueError as err:
        raise ParseError(f"{path}: malformed response row: {err}") from None


def write_response_csv(path, y):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"])
        for v in np.asarray(y, dtype=np.float64):
            writer.writerow([repr(float(v))])


def read_covariates_csv(path):
    """Read the named-column covariate file; returns (names, (n, p0) array)."""
    rows = _read_csv_rows(path)
    names = [c.strip() for c in rows[0]]
    if not names or any(not c for c in names):
        raise ParseError(f"{path}: covariate header must name every column")
    try:
        data = np.array(
            [[float(v) for v in r] for r in rows[1:]], dtype=np.float64
        ).reshape(len(rows) - 1, len(names))
    except ValueError as err:
        raise ParseError(f"{path}: malformed covariate row: {err}") from None
    return names, data


def write_covariates_csv(path, z, names=None):
    z = np.asarray(z, dtype=np.float64)
    if names is None:
        names = [f"z{j + 1}" for j in range(z.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in z:
            writer.writerow([repr(float(v)) for v in row])


def write_study_csv(path, rows):
    """Write study rows with the fixed schema, deterministically."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STUDY_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["shape"],
                    row["n"],
                    row["param"],
                    repr(float(row["mean_rmse"])),
                    repr(float(row["sd_rmse"])),
                    row["rank_selected_mode"],
                ]
            )


def write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "objective"])
        for i, v in enumerate(trace):
            writer.writerow([i, repr(float(v))])


def write_pgm(path, matrix, comment=""):
    """Write a matrix as an 8-bit binary PGM, min-max scaled per image."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DomainError(f"PGM needs a 2-d array, got ndim={m.ndim}")
    lo, hi = float(m.min()), float(m.max())
    scaled = np.zeros_like(m) if hi == lo else (m - lo) / (hi - lo)
    pixels = np.round(255.0 * scaled).astype(np.uint8)
    header = f"P5\n# min-max scaled: min={lo!r} max={hi!r} {comment}\n"
    header += f"{m.shape[1]} {m.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())
