"""Shared plumbing: reproducible RNG streams, CSV emission, checksums, binary containers."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Callable

import numpy as np


def make_rng(seed: int, stream: int = 0, replicate: int = 0) -> np.random.Generator:
    """Return a counter-based (Philox) generator for a derived stream.

    Philox is keyed by the full (seed, stream, replicate) triple, so every
    stage of a run draws from an independent, bit-reproducible stream and a
    recorded seed is enough to replay any experiment exactly.
    """
    return np.random.Generator(np.random.Philox(key=None, seed=[seed, stream, replicate]))


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a CSV with one header row, %.17g floats (a lossless round trip), and a final newline.

    Values that are not floats (ints, strings) are written verbatim, so
    counts stay readable. Output bytes are deterministic for fixed rows.
    """
    lines = [",".join(header)]
    for row in rows:
        cells = (f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v) for v in row)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def median(x) -> float:
    """np.median of a non-empty 1-d array, as the same float.

    It partitions a copy at the middle ranks and the last, as np.median
    does, and returns the mean of the middle values, or NaN when the input
    holds one. On numpy 2, np.median's NaN check imports numpy.ma, which a
    run uses nowhere else.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("median needs a non-empty 1-d array")
    half = x.size // 2
    lo = half if x.size % 2 else half - 1
    part = np.partition(x, [lo, half, -1])
    if np.isnan(part[-1]):  # partition puts NaNs last
        return float(part[-1])
    return float(part[lo : half + 1].mean())


def histogram_csv(path: str | Path, samples: np.ndarray, bins: int = 50) -> None:
    """Write a histogram as (bin_left, bin_right, count) rows over 50 uniform bins."""
    samples = np.asarray(samples, dtype=float)
    lo, hi = float(samples.min()), float(samples.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    rows = [(edges[i], edges[i + 1], int(counts[i])) for i in range(bins)]
    write_csv(path, ["bin_left", "bin_right", "count"], rows)


def write_container(path: str | Path, magic: bytes, header: dict, arrays) -> None:
    """Write magic, a `<Q` header length, sorted-key JSON, then raw float64 arrays.

    The arrays carry no shapes of their own: the header must hold whatever
    the reader needs to recover them.
    """
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype=float).tobytes())


def read_container(
    path: str | Path, magic: bytes, kind: str, shapes: Callable[[dict], list[tuple]]
) -> tuple[dict, list[np.ndarray]]:
    """Read a file written by `write_container`; shapes(header) lists the array shapes.

    Raises ValueError naming the path on a wrong magic, a truncated file, a
    header that is not JSON or lacks what shapes(header) reads, a shape entry
    that is not a non-negative integer, or bytes past the last array.
    """
    raw = Path(path).read_bytes()
    if raw[: len(magic)] != magic:
        raise ValueError(f"not a {kind} file: bad magic in {path}")
    off = len(magic) + 8
    if len(raw) < off:
        raise ValueError(f"truncated {kind} file {path}: no header length")
    (hlen,) = struct.unpack_from("<Q", raw, len(magic))
    if len(raw) < off + hlen:
        raise ValueError(f"truncated {kind} file {path}: header cut short")
    try:
        header = json.loads(raw[off : off + hlen].decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"bad {kind} file {path}: header is not JSON ({exc})") from exc
    try:
        array_shapes = shapes(header)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad {kind} file {path}: header does not give the shapes ({exc!r})") from exc
    off += hlen
    arrays = []
    for shape in array_shapes:
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"bad {kind} file {path}: shape {shape} is not non-negative integers")
        count = math.prod(shape)
        if len(raw) < off + 8 * count:
            raise ValueError(f"truncated {kind} file {path}: array data cut short")
        arr = np.frombuffer(raw, dtype=float, count=count, offset=off)
        arrays.append(arr.reshape(shape).copy())
        off += 8 * count
    if off != len(raw):
        raise ValueError(f"bad {kind} file {path}: {len(raw) - off} bytes past the last array")
    return header, arrays
