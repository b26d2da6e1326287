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
It finds records on the uniforms: the quantile map is non-decreasing (A is
increasing), so a base draw can be an upper record only if its uniform is an
upper record of the uniforms, and only those few uniforms are mapped. The
uniforms come in fixed logical chunks, each drawn in pieces of at most 2**16;
the tail of the last chunk is drawn and discarded, so the stream ends where
whole chunks would leave it, while the memory held stays a few pieces
however high the cap is.
"""

from __future__ import annotations

import math
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
    prior = np.maximum.accumulate(np.concatenate(([floor], arr[:-1])))
    return np.flatnonzero(arr > prior)


def sample_iid(spec: fam.FamilySpec, theta: float, n: int, rng_stream) -> Sample:
    """Draw an i.i.d. sample of size n by inverse-CDF transform.

    ``rng_stream`` is a ``(seed, stream)`` pair, a bare integer seed, or an
    existing generator; output is deterministic given the pair.
    """
    if n < 1:
        raise ArgumentError("sample_iid: n must be at least 1")
    gen = as_generator(rng_stream)
    u = gen.random(int(n))
    x = np.asarray(fam.quantile(spec, theta, u), dtype=float)
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
    gen = as_generator(rng_stream)
    b_val = float(spec.B(float(theta)))
    e = -np.log1p(-gen.random(int(m))) / b_val
    s = np.cumsum(e)
    with np.errstate(over="ignore"):
        r = np.asarray(fam.a_inverse(spec, s), dtype=float)
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        raise DomainError(
            f"family {spec.name!r} at m={m}: record R_{bad[0] + 1} overflows float64"
        )
    return RecordSequence(values=tuple(r.tolist()), indices=tuple(range(int(m))))


def sample_records_sequential(
    spec: fam.FamilySpec,
    theta: float,
    m: int,
    rng_stream,
    max_draws: int = _SEQUENTIAL_CAP,
) -> RecordSequence:
    """Simulate m upper records by drawing base observations until they occur.

    Uniforms are consumed in growing logical chunks (starting at 256, doubling
    to 2**20, the last one cut at ``max_draws``), so the layout, and where the
    stream is left, are deterministic given the stream. Each chunk is drawn
    in pieces of at most 2**16 uniforms; once the m-th record is found, the
    rest of its chunk is still drawn, piece by piece, and discarded. The
    working set is therefore a few pieces, whatever ``max_draws`` is.
    Records are found on the uniforms: ``quantile`` is non-decreasing, as
    every ``FamilySpec``'s is because A is increasing, so only the upper
    records of the uniforms go through it (its domain check runs only on
    those). A record is a value strictly above every earlier one, so a
    float64 tie, two uniforms mapped to one value, is not; the result equals
    mapping every draw and extracting its records. Raises
    :class:`~recordmle.errors.RecordCapError` if ``max_draws`` base draws do
    not contain m records. Returned positions are the true base-sequence
    indices.
    """
    if m < 1:
        raise ArgumentError("sample_records_sequential: m must be at least 1")
    if max_draws < 1:
        raise ArgumentError("sample_records_sequential: max_draws must be at least 1")
    gen = as_generator(rng_stream)
    values: list[float] = []
    indices: list[int] = []
    cur_u = -math.inf
    cur_max = -math.inf
    offset = 0
    chunk = _FIRST_CHUNK
    while len(values) < m:
        if offset >= max_draws:
            raise RecordCapError(
                f"{m} records not reached within {max_draws} base draws "
                f"({len(values)} found)"
            )
        end = min(offset + chunk, max_draws)
        while offset < end:
            size = min(_PIECE, end - offset)
            u = gen.random(size)
            if len(values) < m:
                cand = np.flatnonzero(u > cur_u)
                if cand.size:
                    cand = cand[_record_positions(u[cand], cur_u)]
                    x = np.asarray(fam.quantile(spec, theta, u[cand]), dtype=float)
                    hits = _record_positions(x, cur_max)[: m - len(values)]
                    values.extend(x[hits].tolist())
                    indices.extend((offset + cand[hits]).tolist())
                    cur_u = float(u[cand[-1]])
                    cur_max = max(cur_max, float(x.max()))
            offset += size
        chunk = min(chunk * 2, 1 << 20)
    return RecordSequence(values=tuple(values), indices=tuple(indices))


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


def parse_csv_values(text: str) -> list[float]:
    """Read the ``value`` column from CSV text with a header row."""
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
