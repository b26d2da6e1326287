"""Record extraction and the two record samplers."""

from __future__ import annotations

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recordmle import (
    ArgumentError,
    DomainError,
    RecordCapError,
    RecordSequence,
    Sample,
    cdf,
    extract_upper_records,
    ks_two_sample,
    make_exponential,
    make_lomax,
    make_pareto,
    make_weibull,
    sample_iid,
    sample_records_direct,
    sample_records_sequential,
)
from recordmle import family, records
from recordmle._streams import make_generator
from recordmle.records import parse_csv_values, serialize_csv

finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)


def _brute_force_records(xs):
    out, idx = [], []
    for i, v in enumerate(xs):
        if not out or v > out[-1]:
            out.append(v)
            idx.append(i)
    return out, idx


@given(finite_lists)
@settings(max_examples=100)
def test_extraction_matches_brute_force(xs):
    rs = extract_upper_records(xs)
    values, indices = _brute_force_records(xs)
    assert list(rs.values) == values
    assert list(rs.indices) == indices
    # first observation is always a record
    assert rs.indices[0] == 0


@given(finite_lists)
@settings(max_examples=60)
def test_extraction_idempotent(xs):
    once = extract_upper_records(xs)
    twice = extract_upper_records(once.values)
    assert list(twice.values) == list(once.values)
    # an already strictly increasing sequence is all records
    assert list(twice.indices) == list(range(once.m))


@given(finite_lists)
@settings(max_examples=60)
def test_extraction_invariant_under_increasing_transform(xs):
    # record positions depend only on the ordering of the observations
    direct = extract_upper_records(xs)
    mapped = extract_upper_records([math.atan(v) for v in xs])
    assert list(mapped.indices) == list(direct.indices)


def test_extraction_ignores_ties():
    rs = extract_upper_records([1.0, 1.0, 2.0, 2.0, 1.5, 3.0])
    assert list(rs.values) == [1.0, 2.0, 3.0]
    assert list(rs.indices) == [0, 2, 5]


def test_extraction_worked_example():
    rs = extract_upper_records([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    assert list(rs.values) == [3.0, 4.0, 5.0, 9.0]
    assert list(rs.indices) == [0, 2, 4, 5]


def test_extraction_accepts_sample_wrapper():
    xs = Sample(values=(3.0, 1.0, 4.0, 1.0, 5.0))
    rs = extract_upper_records(xs)
    assert list(rs.values) == [3.0, 4.0, 5.0]


def test_record_sequence_validates_monotonicity():
    with pytest.raises(ArgumentError):
        RecordSequence(values=(1.0, 1.0), indices=(0, 1))
    with pytest.raises(ArgumentError):
        RecordSequence(values=(1.0, 2.0), indices=(3, 1))


@pytest.mark.parametrize(
    "values", [(1.0, math.nan, 2.0), (1.0, 2.0, math.nan)], ids=["interior", "trailing"]
)
def test_record_sequence_rejects_nan(values):
    # NaN compares false, so an interior NaN slips past the increase check
    with pytest.raises(ArgumentError, match="NaN"):
        RecordSequence(values=values, indices=(0, 1, 2))


def test_sample_iid_reproducible():
    spec = make_exponential()
    a = sample_iid(spec, 2.0, 50, rng_stream=(7, 0))
    b = sample_iid(spec, 2.0, 50, rng_stream=(7, 0))
    c = sample_iid(spec, 2.0, 50, rng_stream=(7, 1))
    assert a.values == b.values
    assert a.values != c.values
    assert a.n == 50


def test_sample_iid_matches_quantile_transform():
    # the sampler is inverse transform on a known stream, so replaying the
    # uniforms through the quantile map reproduces it exactly
    spec = make_weibull(2.0)
    got = sample_iid(spec, 1.5, 20, rng_stream=(11, 3))
    u = make_generator(11, 3).random(20)
    expected = -np.log1p(-u) / 1.5
    assert np.allclose(got.values, expected**0.5, rtol=0, atol=0)


def test_records_direct_reproducible_and_increasing():
    spec = make_exponential()
    a = sample_records_direct(spec, 1.0, 12, rng_stream=(3, 0))
    b = sample_records_direct(spec, 1.0, 12, rng_stream=(3, 0))
    assert a.values == b.values
    assert a.m == 12
    assert all(x < y for x, y in zip(a.values, a.values[1:]))
    assert list(a.indices) == list(range(12))


def test_records_sequential_reproducible_and_increasing():
    spec = make_exponential()
    a = sample_records_sequential(spec, 1.0, 6, rng_stream=(5, 0))
    b = sample_records_sequential(spec, 1.0, 6, rng_stream=(5, 0))
    assert a.values == b.values
    assert a.m == 6
    assert all(x < y for x, y in zip(a.values, a.values[1:]))
    # indices are the positions in the underlying i.i.d. stream
    assert a.indices[0] == 0
    assert all(i < j for i, j in zip(a.indices, a.indices[1:]))


def test_records_sequential_cap():
    spec = make_exponential()
    with pytest.raises(RecordCapError):
        sample_records_sequential(spec, 1.0, 8, rng_stream=(0, 0), max_draws=16)


@pytest.mark.parametrize("max_draws", [0, -5])
def test_records_sequential_rejects_invalid_cap(max_draws):
    with pytest.raises(ArgumentError, match="max_draws"):
        sample_records_sequential(make_exponential(), 1.0, 3, 1, max_draws=max_draws)


def test_records_sequential_memory_does_not_grow_with_cap():
    # 40 records never occur within the default 1e7 draws, so every chunk up
    # to the cap is drawn; only pieces of it are held at once
    tracemalloc.start()
    try:
        with pytest.raises(RecordCapError):
            sample_records_sequential(make_exponential(), 1.0, 40, (1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _literal_sequential(spec, theta, m, gen, max_draws):
    """The sequential sampler by definition: map every draw of each chunk
    through the quantile, then keep the strict running-maximum records."""
    values, indices = [], []
    cur_max, offset, chunk = -math.inf, 0, 256
    while len(values) < m:
        if offset >= max_draws:
            raise RecordCapError(
                f"{m} records not reached within {max_draws} base draws "
                f"({len(values)} found)"
            )
        size = min(chunk, max_draws - offset)
        x = np.asarray(family.quantile(spec, theta, gen.random(size)), dtype=float)
        cummax = np.maximum.accumulate(x)
        prior = np.maximum(np.concatenate(([-math.inf], cummax[:-1])), cur_max)
        for j in np.nonzero(x > prior)[0][: m - len(values)]:
            values.append(float(x[j]))
            indices.append(offset + int(j))
        cur_max = max(cur_max, float(cummax[-1]))
        offset += size
        chunk = min(chunk * 2, 1 << 20)
    return tuple(values), tuple(indices)


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except RecordCapError as exc:
        return str(exc)


def _sequential(spec, theta, m, gen, max_draws):
    rs = sample_records_sequential(spec, theta, m, gen, max_draws=max_draws)
    return rs.values, rs.indices


_NO_A_INV = dataclasses.replace(make_lomax(), A_inv=None)


def _case(spec, seeds, cap, piece=None, id=None):
    return pytest.param(spec, seeds, 8, cap, piece, id=id or f"{spec.name}-{seeds}-8-{cap}")


@pytest.mark.parametrize(
    "spec,seeds,max_m,cap,piece",
    [
        _case(make_exponential(), 100, 200_000),
        _case(make_lomax(), 100, 200_000),
        _case(make_weibull(2.0), 100, 200_000),
        _case(make_weibull(0.5), 100, 200_000),
        _case(make_pareto(1.5), 100, 200_000),
        # the bisection fallback of a_inverse; the literal rule inverts every
        # draw, so fewer seeds and a lower cap keep the case quick
        _case(_NO_A_INV, 6, 1_000, id="lomax-no-A_inv"),
        # pieces of 100 split every chunk, meet the cap of 700 inside a piece
        # and leave part of a chunk to discard
        _case(make_exponential(), 100, 20_000, piece=100, id="exponential-piece-100"),
    ],
)
def test_records_sequential_matches_literal_definition(
    spec, seeds, max_m, cap, piece, monkeypatch
):
    # records found on the uniforms equal the literal rule on the mapped draws:
    # values, indices and cap messages, with a cap cutting a chunk short on
    # every fifth seed
    if piece is not None:
        monkeypatch.setattr(records, "_PIECE", piece)
    for m in range(1, max_m + 1):
        for seed in range(seeds):
            max_draws = 700 if seed % 5 == 0 else cap
            args = (spec, 1.3, m)
            got = _outcome(_sequential, *args, make_generator(seed, m), max_draws)
            want = _outcome(_literal_sequential, *args, make_generator(seed, m), max_draws)
            assert got == want, (spec.name, m, seed)


def test_records_sequential_shared_stream_matches_literal_definition(monkeypatch):
    # as the MC `records` source draws them: 200 sequences in turn from one
    # generator, capped ones included, so each call leaves the stream where
    # the literal rule would; pieces of 100 split the chunks and leave tails
    # to discard
    spec = make_exponential()
    for piece in (records._PIECE, 100):
        monkeypatch.setattr(records, "_PIECE", piece)
        ours, literal = make_generator(3, 0), make_generator(3, 0)
        capped = 0
        for _ in range(200):
            got = _outcome(_sequential, spec, 1.0, 10, ours, 100_000)
            want = _outcome(_literal_sequential, spec, 1.0, 10, literal, 100_000)
            assert got == want, piece
            capped += isinstance(got, str)
        assert 0 < capped < 200
        assert ours.random() == literal.random()


@pytest.mark.parametrize("n", [0, 1, 255, 65_536, 1_000_003])
def test_pcg64_advance_skips_as_many_uniforms(n):
    # the sequential sampler skips chunk tails with advance: one step per
    # float64 draw, as numpy documents
    jumped, drawn = make_generator(4, 0), make_generator(4, 0)
    jumped.bit_generator.advance(n)
    assert jumped.random() == drawn.random(n + 1)[-1]
    assert jumped.bit_generator.state == drawn.bit_generator.state


def _mt19937(seed):
    return np.random.Generator(np.random.MT19937(seed))


def _pcg64_with_spare_uint32(seed):
    # a 32-bit draw leaves half of a 64-bit output buffered, which advance drops
    gen = make_generator(seed, 0)
    gen.integers(0, 2**32, dtype=np.uint32)
    return gen


@pytest.mark.parametrize("make", [_mt19937, _pcg64_with_spare_uint32])
def test_records_sequential_draws_and_discards_tails_it_cannot_jump(make, monkeypatch):
    # without a jump, the tail of the last chunk is drawn and discarded, so
    # each call still leaves the stream, spare 32-bit draw included, where the
    # literal rule would; pieces of 100 leave a tail in almost every call
    monkeypatch.setattr(records, "_PIECE", 100)
    spec = make_exponential()
    ours, literal = make(3), make(3)
    for _ in range(100):
        got = _outcome(_sequential, spec, 1.0, 6, ours, 100_000)
        want = _outcome(_literal_sequential, spec, 1.0, 6, literal, 100_000)
        assert got == want
    assert ours.integers(0, 2**32, dtype=np.uint32) == literal.integers(0, 2**32, dtype=np.uint32)
    assert ours.random() == literal.random()


def test_records_sequential_strict_on_value_ties(monkeypatch):
    # a quantile rounded to 3 significant digits stays non-decreasing but maps
    # distinct uniforms to one value: the strict test on values, not the
    # uniform records alone, decides which draws are records
    exact = family.quantile

    def rounded(spec, theta, u):
        x = np.asarray(exact(spec, theta, u), dtype=float)
        return np.array([float(f"{v:.3g}") for v in x.ravel()]).reshape(x.shape)

    # at alpha = 10 neighbouring records often share 3 digits
    spec = make_weibull(10.0)
    cases = [(m, seed) for m in range(2, 9) for seed in range(30)]
    unrounded = {c: _outcome(_sequential, spec, 1.0, c[0], make_generator(c[1], 0), 20_000)
                 for c in cases}
    monkeypatch.setattr(family, "quantile", rounded)
    dropped = 0
    for m, seed in cases:
        got = _outcome(_sequential, spec, 1.0, m, make_generator(seed, 0), 20_000)
        want = _outcome(_literal_sequential, spec, 1.0, m, make_generator(seed, 0), 20_000)
        assert got == want, (m, seed)
        dropped += got != unrounded[(m, seed)]
    # the ties are real: some uniform records are not value records
    assert dropped > 0


@pytest.mark.filterwarnings("error")
def test_records_direct_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match=r"'lomax' at m=800: record R_701 overflows"):
        sample_records_direct(make_lomax(), 1.0, 800, rng_stream=9)


@pytest.mark.filterwarnings("error")
def test_sample_iid_overflow_is_a_domain_error():
    # A-values are Exp(1)/0.05; past about 70.7, A_inv = y**(1/0.006) overflows
    spec = family.resolve_family("weibull:alpha=0.006")
    with pytest.raises(DomainError, match=r"at theta=0\.05: draw 38 overflows float64"):
        sample_iid(spec, 0.05, 200, rng_stream=1)


def test_two_record_samplers_agree_in_distribution():
    # both samplers target the law of the first m upper records; compare the
    # m-th record across replications with a two-sample KS statistic
    spec = make_exponential()
    m, reps = 4, 3000
    direct = np.array(
        [
            sample_records_direct(spec, 1.0, m, rng_stream=(101, i)).values[-1]
            for i in range(reps)
        ]
    )
    sequential = np.array(
        [
            sample_records_sequential(spec, 1.0, m, rng_stream=(202, i)).values[-1]
            for i in range(reps)
        ]
    )
    d = ks_two_sample(direct, sequential)
    # null critical value at alpha=0.001 is about 1.95 sqrt(2/reps) = 0.050
    assert d < 0.05


def test_sample_transform_mean_is_reciprocal_rate():
    # A(X) is exponential with rate B(theta), so its mean is 1/B(theta)
    spec = make_weibull(2.0)
    theta = 2.0
    xs = np.asarray(sample_iid(spec, theta, 100000, rng_stream=(31, 0)).values)
    a_vals = spec.A(xs)
    want = 1.0 / theta
    stderr = want / math.sqrt(a_vals.size)
    assert abs(a_vals.mean() - want) < 3.0 * stderr


def test_record_transform_mean_is_m_over_rate():
    # A(R_m) is a sum of m such exponentials, so its mean is m/B(theta)
    spec = make_weibull(2.0)
    theta, m, reps = 2.0, 6, 2500
    vals = np.array(
        [
            spec.A(sample_records_direct(spec, theta, m, rng_stream=(77, i)).values[-1])
            for i in range(reps)
        ]
    )
    want = m / theta
    stderr = math.sqrt(m) / theta / math.sqrt(reps)
    assert abs(vals.mean() - want) < 3.0 * stderr


def test_direct_sampler_mth_record_is_gamma_sum():
    # for the exponential member the m-th record is a sum of m unit-rate
    # exponential gaps, so its cdf at x is the Gamma(m, 1/theta) cdf
    spec = make_exponential()
    m, reps, x = 3, 4000, 3.0
    vals = np.array(
        [
            sample_records_direct(spec, 1.0, m, rng_stream=(55, i)).values[-1]
            for i in range(reps)
        ]
    )
    # P(Gamma(3,1) <= 3) = 1 - e^{-3}(1 + 3 + 4.5)
    target = 1.0 - math.exp(-3.0) * 8.5
    hit = float(np.mean(vals <= x))
    assert abs(hit - target) < 4.0 * math.sqrt(target * (1 - target) / reps)


def test_records_respect_support_offset():
    spec = make_pareto(2.0)
    rs = sample_records_direct(spec, 1.0, 5, rng_stream=(9, 0))
    assert all(v >= 2.0 for v in rs.values)
    xs = sample_iid(spec, 1.0, 40, rng_stream=(9, 1))
    assert all(v >= 2.0 for v in xs.values)
    assert 0.0 <= cdf(spec, 1.0, min(xs.values)) < 1.0


def test_csv_roundtrip_sample():
    spec = make_exponential()
    xs = sample_iid(spec, 1.0, 10, rng_stream=(1, 0))
    text = serialize_csv(xs)
    lines = text.strip().split("\n")
    assert lines[0] == "index,value"
    assert len(lines) == 11
    assert parse_csv_values(text) == list(xs.values)


def test_csv_roundtrip_records_keeps_indices():
    rs = extract_upper_records([3.0, 1.0, 4.0, 1.0, 5.0])
    text = serialize_csv(rs)
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    assert [int(r[0]) for r in rows] == [0, 2, 4]
    assert parse_csv_values(text) == [3.0, 4.0, 5.0]


@pytest.mark.parametrize(
    "text",
    ["", "a,b\n1,2\n", "index,value\n", "index,value\n0,notanumber\n"],
)
def test_csv_rejects_malformed(text):
    with pytest.raises(ArgumentError):
        parse_csv_values(text)


# fields that float() and np.loadtxt might read differently, or refuse
_ODD_FIELDS = st.sampled_from([
    "", " ", "1_0", "\u0661\u0662", '"1"', "1#", "#", "0x10", "1 2", "1\r2", "1.5\r",
    "nan", "-nan", "inf", "-Infinity", "1e400", "-1e400", "5e-324",
    "2.2250738585072009e-308", "0.30000000000000004", "12345678901234567",
    " 1.5 ", "\t2", "1\x0c", "1\u3000", "1\x1c", "\x1f1", "1\x85", "\xa01", "1\x00",
    "+.5", "1.", ".e1", "--1",
])
_FIELDS = st.one_of(
    _ODD_FIELDS,
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet='0123456789.eE+-_ #"', max_size=6),
)
_BLANK_LINES = st.sampled_from(["", " ", "\t", "\r", " \r", "\x0c", "\x1c", "\u2028"])
_HEADERS = st.sampled_from(["value", "index,value", "value,index", "a,value,b", " value \r",
                            "index,value,value", "index,val", "", " "])


@st.composite
def _csv_texts(draw):
    """CSV texts: the value column first, middle or last, odd rows, fields and line ends."""
    rows = st.lists(_FIELDS, max_size=4).map(",".join)
    lines = [draw(_HEADERS)] + draw(st.lists(st.one_of(rows, _BLANK_LINES), max_size=6))
    if draw(st.booleans()):
        lines.insert(0, draw(_BLANK_LINES))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _parse_outcome(parse, text):
    """The bits and type of every parsed value, or the error message."""
    try:
        values = parse(text)
    except ArgumentError as exc:
        return str(exc)
    return [(type(v), struct.pack("<d", v)) for v in values]


@settings(max_examples=500, deadline=None)
@given(_csv_texts())
@example("index,value\n")
@example("index,value\n0,1.5")
@example("value\n1e400\n")
@example("\nindex,value\n0,1.5\n")
@example("index,value\r\n0,1.5\r\n\r\n1,2.5\r\n")
@example("index,value\n0,1\x1c\n1,\x1f2.5\n")  # loadtxt strips these, float() refuses them
def test_csv_parse_matches_the_line_reader(text):
    assert _parse_outcome(parse_csv_values, text) == \
        _parse_outcome(records._parse_csv_lines, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
def test_csv_roundtrip_keeps_every_bit(xs):
    got = parse_csv_values(serialize_csv(Sample(values=tuple(xs))))
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in xs]


def test_serialized_csv_is_read_without_the_line_reader(monkeypatch):
    def fail(text):
        raise AssertionError("line reader used")

    monkeypatch.setattr(records, "_parse_csv_lines", fail)
    xs = sample_iid(make_exponential(), 1.0, 1000, rng_stream=(2, 0))
    assert parse_csv_values(serialize_csv(xs)) == list(xs.values)
    rs = sample_records_direct(make_exponential(), 1.0, 1, rng_stream=(2, 1))
    assert parse_csv_values(serialize_csv(rs)) == list(rs.values)
