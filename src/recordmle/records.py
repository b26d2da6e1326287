"""Upper record values: extraction from sequences and simulation.

An observation in a sequence is an upper record when it strictly exceeds
every earlier observation; the first observation is always a record. For a
family member with transform A and rate B(theta), the transformed record
values A(R_1) < A(R_2) < ... form the partial sums of i.i.d. exponential
variables with mean 1/B(theta), so A(R_i) is gamma distributed with shape i.
That identity gives an O(m) direct simulator for the first m records,
:func:`sample_records_direct`, which is the preferred generator for
record-based experiments. The literal approach, drawing base observations
until m records have occurred, is kept as :func:`sample_records_sequential`
for cross-checking; its waiting time is heavy tailed (the index of the m-th
record has infinite mean already at m = 2), so it runs under a hard cap on
base draws and raises :class:`~recordmle.errors.RecordCapError` beyond it.
It finds records on the uniforms, as the quantile map is non-decreasing (A is
increasing), and maps only those. Its logical chunks are drawn in pieces of at
most 2**16 and the tail of the last one is skipped, not drawn, so the stream
ends where whole chunks would leave it and a few pieces are held at most. Each
sampler checks theta first; ``_observations`` names the draw or record that overflows.

CSV text is read with ``np.loadtxt`` on the ``value`` column; any text it
refuses, or might read differently from ``float``, goes through the
line-by-line reader, which alone decides errors and their messages.
"""

from __future__ import annotations

import io
import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import family as fam
from ._streams import as_generator
from .errors import ArgumentError, DomainError, RecordCapError

__all__ = [
    "Sample",
    "RecordSequence",
    "extract_upper_records",
    "sample_iid",
    "sample_records_direct",
    "sample_records_sequential",
    "serialize_csv",
    "parse_csv_values",
]

_SEQUENTIAL_CAP = 10_000_000
_FIRST_CHUNK = 256
# the most uniforms the sequential sampler holds at once (512 KiB of float64)
_PIECE = 1 << 16


@dataclass(frozen=True, slots=True)
class Sample:
    """An i.i.d. sample of base observations."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ArgumentError("Sample: empty value list")
        # no dtype: strings and None stay a TypeError rather than being parsed
        if np.isnan(np.asarray(self.values)).any():
            raise ArgumentError("Sample: NaN observation")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
class RecordSequence:
    """Upper record values R_1 < ... < R_m with base-sequence positions.

    ``indices`` holds the 0-based positions of the records in the base
    sequence; extraction always yields ``indices[0] == 0``. Synthetic
    sequences from the direct simulator use positions 0..m-1.
    """

    values: tuple[float, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ArgumentError("RecordSequence: empty")
        if len(self.values) != len(self.indices):
            raise ArgumentError("RecordSequence: values/indices length mismatch")
        # NaN compares false, so the strict-increase check alone would pass it
        if np.isnan(np.asarray(self.values)).any():
            raise ArgumentError("RecordSequence: NaN value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ArgumentError("RecordSequence: values must strictly increase")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ArgumentError("RecordSequence: indices must strictly increase")

    @property
    def m(self) -> int:
        return len(self.values)


def extract_upper_records(xs: Union[Sample, Iterable[float]]) -> RecordSequence:
    """Extract the upper records of a sequence.

    Ties are not records: a value equal to the running maximum is skipped,
    matching the convention for continuous parents where ties have
    probability zero. Equals the brute-force definition
    ``xs[i] > max(xs[0..i-1])`` entry for entry.
    """
    values = xs.values if isinstance(xs, Sample) else tuple(xs)
    if len(values) == 0:
        raise ArgumentError("extract_upper_records: empty input")
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise ArgumentError("extract_upper_records: NaN in input")
    idx = _record_positions(arr, -math.inf)
    return RecordSequence(
        values=tuple(arr[idx].tolist()),
        indices=tuple(idx.tolist()),
    )


def _record_positions(arr: np.ndarray, floor: float) -> np.ndarray:
    """Positions where ``arr`` strictly exceeds ``floor`` and every earlier entry."""
    prior = np.empty_like(arr)
    prior[:1], prior[1:] = floor, arr[:-1]
    return (arr > np.maximum.accumulate(prior)).nonzero()[0]


def _observations(spec, theta, draws, where, label, a_values=False, keep=None):
    """Map ``draws`` to observations x, uniforms through ``fam.quantile`` or A-values
    through A_inv, and return ``keep(x)`` (x by default). Where that is not finite, the
    first x that is not finite overflows float64: a DomainError names ``label(head)``, head
    the x up to it in C order, unless the label is None (an overflow that is no error)."""
    with np.errstate(over="ignore"):
        x = np.asarray(fam.a_inverse(spec, draws) if a_values
                       else fam.quantile(spec, theta, draws), dtype=float)
    kept = x if keep is None else keep(x)
    if not np.isfinite(kept).all() and not np.isfinite(x).all():
        name = label(x.ravel()[: np.flatnonzero(~np.isfinite(x))[0] + 1])
        if name is not None:
            raise DomainError(f"family {spec.name!r} at {where}: {name} overflows float64")
    return kept


def sample_iid(spec: fam.FamilySpec, theta: float, n: int, rng_stream) -> Sample:
    """Draw an i.i.d. sample of size n by inverse-CDF transform.

    ``rng_stream`` is a ``(seed, stream)`` pair, a bare integer seed, or an
    existing generator; output is deterministic given the pair. Raises
    :class:`~recordmle.errors.DomainError` when a draw overflows float64.
    """
    if n < 1:
        raise ArgumentError("sample_iid: n must be at least 1")
    theta = fam._check_theta(spec, theta)
    u = as_generator(rng_stream).random(int(n))
    x = _observations(spec, theta, u, f"theta={theta!r}", lambda head: f"draw {head.size - 1}")
    return Sample(values=tuple(x.tolist()))


def sample_records_direct(
    spec: fam.FamilySpec, theta: float, m: int, rng_stream
) -> RecordSequence:
    """Simulate the first m upper records in O(m) draws.

    Builds the partial sums S_i of i.i.d. exponentials with mean
    1/B(theta) and maps them back through A_inv; the S_i are exactly the
    transformed record values, so no base observations are needed.
    Positions are synthetic (0..m-1). Raises
    :class:`~recordmle.errors.DomainError` when a record overflows float64.
    """
    if m < 1:
        raise ArgumentError("sample_records_direct: m must be at least 1")
    b_val = float(spec.B(fam._check_theta(spec, theta)))
    s = np.cumsum(-np.log1p(-as_generator(rng_stream).random(int(m))) / b_val)
    r = _observations(spec, theta, s, f"m={m}", lambda head: f"record R_{head.size}", a_values=True)
    return RecordSequence(values=tuple(r.tolist()), indices=tuple(range(int(m))))


def sample_records_sequential(
    spec: fam.FamilySpec,
    theta: float,
    m: int,
    rng_stream,
    max_draws: int = _SEQUENTIAL_CAP,
) -> RecordSequence:
    """Simulate m upper records by drawing base observations until they occur.

    Uniforms come in chunks of 256 doubling to 2**20 (the last cut at
    ``max_draws``), drawn in pieces of at most 2**16; the rest of the chunk
    holding the m-th record is skipped, not drawn (``PCG64.advance``; other
    bit generators draw and discard it). Only uniform records go through
    ``quantile``; a tie is no record, so the result equals mapping every draw
    and extracting its records, with true base-sequence positions. Raises
    :class:`~recordmle.errors.DomainError` once one of its m records overflows
    float64, and :class:`~recordmle.errors.RecordCapError` past ``max_draws``.
    """
    if m < 1:
        raise ArgumentError("sample_records_sequential: m must be at least 1")
    if max_draws < 1:
        raise ArgumentError("sample_records_sequential: max_draws must be at least 1")
    theta = fam._check_theta(spec, theta)
    values, indices = _walk(spec, theta, m, as_generator(rng_stream), max_draws)
    return RecordSequence(values=tuple(values), indices=tuple(indices))


def _walk(spec, theta, m, gen, max_draws, head=None) -> tuple[list[float], list[int]]:
    """Values and positions of the first m records of ``spec``'s observations (of the
    uniforms if spec is None) on ``gen`` after ``head``, the uniform records of a first chunk."""
    values, indices, (wait_u, wait_i), bg = [], [], head or ([], []), gen.bit_generator
    cur_u, cur_max = wait_u[-1] if wait_u else -math.inf, -math.inf
    offset, chunk = (min(_FIRST_CHUNK, max_draws), 2 * _FIRST_CHUNK) if head else (0, _FIRST_CHUNK)
    while len(values) < m:
        end = min(offset + chunk, max_draws)
        while offset < end and len(values) < m:
            u = gen.random(min(_PIECE, end - offset))
            if u.max() > cur_u:
                cand = (u > cur_u).nonzero()[0]
                cand = cand[_record_positions(u[cand], cur_u)]
                wait_u += u[cand].tolist()
                wait_i += (offset + cand).tolist()
                cur_u = wait_u[-1]
            offset += u.size
            if wait_u and (len(values) + len(wait_u) >= m or offset >= max_draws):
                # once they could hold m; an overflow past the m-th record is no error
                rank = lambda head: len(values) + _record_positions(head, cur_max).size
                x = np.asarray(wait_u) if spec is None else _observations(spec, theta, wait_u,
                    f"m={m}", lambda head: f"record R_{rank(head)}" if rank(head) <= m else None)
                hits = _record_positions(x, cur_max)[: m - len(values)]
                values += x[hits].tolist()
                indices += [wait_i[h] for h in hits]
                cur_max, wait_u, wait_i = max(cur_max, float(x.max())), [], []
        if len(values) < m and offset >= max_draws:
            raise RecordCapError(f"{m} records not reached within {max_draws} base draws "
                                 f"({len(values)} found)")
        if end > offset and isinstance(bg, np.random.PCG64) and not bg.state["has_uint32"]:
            bg.advance(end - offset)
        else:  # advance would drop a spare 32-bit draw; such tails are drawn
            for size in range(end - offset, 0, -_PIECE):
                gen.random(min(_PIECE, size))
        chunk = min(chunk * 2, 1 << 20)
    return values, indices


def _sequential_tops(spec: fam.FamilySpec, theta: float, m: int, gen: np.random.Generator,
                     count: int, max_draws: int = _SEQUENTIAL_CAP) -> np.ndarray:
    """R_m of ``count`` sequential samples drawn in turn from a PCG64 ``gen`` (NaN if
    capped), using the stream as that many sampler calls do: a running maximum over
    k first chunks finds their uniform records, a row short of m is walked on, and
    a tie among their quantiles redoes the block on the values."""
    bg = gen.bit_generator
    start = bg.state
    first_m = np.full((count, m), math.nan)
    width, done, k = min(_FIRST_CHUNK, max_draws), 0, 1
    while done < count:
        k = min(k, count - done, max(1, _PIECE // width))
        saved = bg.state
        u = gen.random((k, width))
        rec = np.ones(u.shape, dtype=bool)  # rec: u is above all before it in its row
        np.greater(u[:, 1:], np.maximum.accumulate(u, axis=1)[:, :-1], out=rec[:, 1:])
        short = rec.sum(axis=1) < m
        full = int(short.argmax()) if short.any() else k
        flat = rec[:full].ravel().nonzero()[0]  # positions of the records, row by row
        starts = flat.searchsorted(np.arange(full) * width)  # each row's first record
        first_m[done:done + full] = u.ravel()[flat[starts[:, None] + np.arange(m)]]
        if full < k:  # walk that row on from the end of its first chunk
            bg.state = saved
            bg.advance((full + 1) * width)
            with suppress(RecordCapError):
                first_m[done + full] = _walk(None, None, m, gen, max_draws, (
                    u[full, rec[full]].tolist(), rec[full].nonzero()[0].tolist()))[0]
        done += min(full + 1, k)
        k = k * 2 if full == k else max(1, k // 2)
    out, kept = np.full(count, math.nan), ~np.isnan(first_m[:, 0])
    rank = lambda head: _record_positions(head[(head.size - 1) // m * m:], -math.inf).size
    x = _observations(spec, theta, first_m[kept], f"m={m}", lambda head: f"record R_{rank(head)}")
    if (x[:, 1:] > x[:, :-1]).all():
        out[kept] = x[:, m - 1]
        return out
    bg.state = start
    for j in range(count):
        with suppress(RecordCapError):
            out[j] = sample_records_sequential(spec, theta, m, gen, max_draws).values[-1]
    return out


# ---------------------------------------------------------------------------
# CSV interchange: header `index,value`, UTF-8, LF, shortest round-trip
# decimals (repr of a Python float is the shortest string that round-trips).


def serialize_csv(obj: Union[Sample, RecordSequence]) -> str:
    """Serialize a sample or record sequence to CSV text."""
    if isinstance(obj, RecordSequence):
        pairs = zip(obj.indices, obj.values)
    else:
        pairs = enumerate(obj.values)
    lines = ["index,value"]
    lines.extend(f"{i},{v!r}" for i, v in pairs)
    return "\n".join(lines) + "\n"


# separators that loadtxt strips around a number as whitespace and float() refuses
_FLOAT_REFUSES = "\x1c\x1d\x1e\x1f"


def parse_csv_values(text: str) -> list[float]:
    """Read the ``value`` column from CSV text with a header row.

    When the first line is a header naming ``value``, the rows after it go
    through ``np.loadtxt``, which parses each field with the same correctly
    rounded routine as ``float``. Any input it refuses (underscores,
    non-ASCII digits, quotes, blank lines with spaces, short rows, a carriage
    return inside a line), and any text holding one of the ``_FLOAT_REFUSES``
    characters, is read again by :func:`_parse_csv_lines`, which alone
    decides what is an error and its message.
    """
    head, _, body = text.partition("\n")
    header = [h.strip() for h in head.split(",")]
    # a blank body goes to the line reader: loadtxt warns on empty input
    if ("value" in header and body.strip()
            and not any(c in body for c in _FLOAT_REFUSES)):
        try:
            # bytes, not a StringIO: that holds four bytes a character
            return np.loadtxt(io.BytesIO(body.encode("utf-8")), encoding="utf-8",
                              delimiter=",", usecols=header.index("value"),
                              comments=None, ndmin=1, dtype=float).tolist()
        except ValueError:
            pass
    return _parse_csv_lines(text)


def _parse_csv_lines(text: str) -> list[float]:
    """``parse_csv_values`` one line at a time, with ``float`` on each field."""
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines:
        raise ArgumentError("CSV input is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if "value" not in header:
        raise ArgumentError(f"CSV header {lines[0]!r} has no 'value' column")
    col = header.index("value")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            out.append(float(parts[col]))
        except (IndexError, ValueError):
            raise ArgumentError(f"malformed CSV row {ln!r}") from None
    if not out:
        raise ArgumentError("CSV input has no data rows")
    return out
