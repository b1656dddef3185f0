"""Unit and property tests for TypedBuffer pack/unpack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    DOUBLE,
    INT,
    Contiguous,
    DatatypeError,
    HIndexed,
    Indexed,
    Struct,
    Subarray,
    TypedBuffer,
    Vector,
)


def test_pack_contiguous_is_copy():
    buf = np.arange(10, dtype=np.float64)
    tb = TypedBuffer(buf, DOUBLE, count=10)
    packed = tb.pack()
    assert packed.view(np.float64).tolist() == buf.tolist()


def test_pack_column_of_matrix_matches_numpy():
    """The paper's running example: column of an 8x8 matrix, 3 doubles/elem."""
    m = np.arange(8 * 8 * 3, dtype=np.float64).reshape(8, 8, 3)
    element = Contiguous(3, DOUBLE)
    column = Vector(8, 1, 8, element)
    tb = TypedBuffer(m, column)
    got = tb.pack().view(np.float64)
    expect = m[:, 0, :].reshape(-1)
    assert np.array_equal(got, expect)


def test_pack_arbitrary_column():
    m = np.random.default_rng(0).random((16, 16))
    col = Vector(16, 1, 16, DOUBLE)
    tb = TypedBuffer(m, col, offset_bytes=5 * 8)  # column 5
    got = tb.pack().view(np.float64)
    assert np.array_equal(got, m[:, 5])


def test_unpack_roundtrip_column():
    m = np.zeros((8, 8))
    col = Vector(8, 1, 8, DOUBLE)
    tb = TypedBuffer(m, col, offset_bytes=3 * 8)
    data = np.arange(8, dtype=np.float64)
    tb.unpack(data.view(np.uint8))
    assert np.array_equal(m[:, 3], data)
    assert m[:, :3].sum() == 0 and m[:, 4:].sum() == 0


def test_pack_indexed_definition_order():
    buf = np.arange(10, dtype=np.float64)
    dt = Indexed([2, 1], [6, 1], DOUBLE)
    tb = TypedBuffer(buf, dt)
    got = tb.pack().view(np.float64)
    assert got.tolist() == [6.0, 7.0, 1.0]


def test_pack_subarray_2d():
    m = np.arange(36, dtype=np.float64).reshape(6, 6)
    dt = Subarray([6, 6], [3, 2], [2, 1], DOUBLE)
    tb = TypedBuffer(m, dt)
    got = tb.pack().view(np.float64)
    assert np.array_equal(got, m[2:5, 1:3].reshape(-1))


def test_pack_subarray_3d_face():
    a = np.arange(5 * 4 * 3, dtype=np.float64).reshape(5, 4, 3)
    dt = Subarray([5, 4, 3], [5, 4, 1], [0, 0, 2], DOUBLE)
    got = TypedBuffer(a, dt).pack().view(np.float64)
    assert np.array_equal(got, a[:, :, 2].reshape(-1))


def test_pack_struct_mixed_granularity():
    # int (4 bytes) + double (8 bytes) with a hole => granularity 4
    raw = np.zeros(16, dtype=np.uint8)
    raw[:4] = np.array([1, 0, 0, 0], dtype=np.uint8)
    raw[8:16] = np.frombuffer(np.float64(2.5).tobytes(), dtype=np.uint8)
    dt = Struct([1, 1], [0, 8], [INT, DOUBLE])
    tb = TypedBuffer(raw, dt)
    packed = tb.pack()
    assert packed[:4].view(np.int32)[0] == 1
    assert packed[4:12].view(np.float64)[0] == 2.5


def test_unpack_size_mismatch_rejected():
    buf = np.zeros(8, dtype=np.float64)
    tb = TypedBuffer(buf, DOUBLE, count=8)
    with pytest.raises(DatatypeError):
        tb.unpack(np.zeros(9, dtype=np.uint8))


def test_buffer_too_small_rejected():
    buf = np.zeros(4, dtype=np.float64)
    with pytest.raises(DatatypeError):
        TypedBuffer(buf, DOUBLE, count=5)
    with pytest.raises(DatatypeError):
        TypedBuffer(buf, DOUBLE, count=4, offset_bytes=8)


def test_reaching_below_the_buffer_start_rejected():
    # a negative displacement used to wrap around (numpy's negative slice
    # indices) and silently move elements 0 and 3 instead of -1 and 2
    buf = np.arange(8.0)
    below = Indexed([1, 1], [-1, 2], DOUBLE)
    for args, reach in (((below,), 8),
                        ((HIndexed([1], [-8], DOUBLE),), 8),
                        ((DOUBLE, 2, -16), 16)):
        with pytest.raises(DatatypeError) as info:
            TypedBuffer(buf, *args)
        assert str(info.value) == (
            f"datatype reaches {reach} bytes before the buffer start")
    assert buf.tolist() == list(range(8))


def test_negative_displacement_covered_by_the_offset_is_legal():
    buf = np.arange(8.0)
    tb = TypedBuffer(buf, Indexed([1, 1], [-1, 2], DOUBLE), offset_bytes=8)
    assert tb.pack().view(np.float64).tolist() == [0.0, 3.0]
    tb.unpack(np.array([-1.0, -2.0]).view(np.uint8))
    assert buf.tolist() == [-1.0, 1.0, 2.0, -2.0, 4.0, 5.0, 6.0, 7.0]


def test_zero_count_buffer():
    buf = np.zeros(4, dtype=np.float64)
    tb = TypedBuffer(buf, DOUBLE, count=0)
    assert tb.nbytes == 0
    assert tb.pack().size == 0
    tb.unpack(np.empty(0, dtype=np.uint8))  # no-op


def test_non_contiguous_numpy_buffer_rejected():
    m = np.zeros((4, 4))
    with pytest.raises(DatatypeError):
        TypedBuffer(m[:, 1], DOUBLE, count=4)


def test_transpose_send_recv_equivalence():
    """Sender packs column-major, receiver stores contiguously: transpose."""
    n = 12
    src = np.random.default_rng(1).random((n, n))
    dst = np.zeros((n, n))
    # one column at a time, like the transpose benchmark
    for j in range(n):
        col = Vector(n, 1, n, DOUBLE)
        sender = TypedBuffer(src, col, offset_bytes=j * 8)
        wire = sender.pack()
        receiver = TypedBuffer(dst, DOUBLE, count=n, offset_bytes=j * n * 8)
        receiver.unpack(wire)
    assert np.array_equal(dst, src.T)


# -- property-based roundtrips -------------------------------------------


@st.composite
def indexed_layout(draw):
    nblocks = draw(st.integers(1, 12))
    lens = draw(st.lists(st.integers(1, 5), min_size=nblocks, max_size=nblocks))
    # non-overlapping displacements with random gaps, then shuffled
    gaps = draw(st.lists(st.integers(0, 4), min_size=nblocks, max_size=nblocks))
    disps = []
    pos = 0
    for length, gap in zip(lens, gaps):
        pos += gap
        disps.append(pos)
        pos += length
    order = draw(st.permutations(range(nblocks)))
    return [lens[i] for i in order], [disps[i] for i in order], pos


@given(indexed_layout(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_indexed_pack_unpack_roundtrip(layout, rnd):
    lens, disps, total = layout
    dt = Indexed(lens, disps, DOUBLE)
    src = np.arange(total + 1, dtype=np.float64)
    packed = TypedBuffer(src, dt).pack()
    dst = np.full(total + 1, -1.0)
    TypedBuffer(dst, dt).unpack(packed)
    # every selected element landed back in place
    sel = np.zeros(total + 1, dtype=bool)
    for length, disp in zip(lens, disps):
        sel[disp : disp + length] = True
    assert np.array_equal(dst[sel], src[sel])
    assert np.all(dst[~sel] == -1.0)


@given(
    st.integers(1, 10),  # count
    st.integers(1, 4),   # blocklength
    st.integers(0, 6),   # extra stride
)
@settings(max_examples=100)
def test_vector_pack_matches_bruteforce(count, blocklength, extra):
    stride = blocklength + extra
    dt = Vector(count, blocklength, stride, DOUBLE)
    n = (count - 1) * stride + blocklength
    src = np.arange(n, dtype=np.float64)
    got = TypedBuffer(src, dt).pack().view(np.float64)
    expect = np.concatenate(
        [src[i * stride : i * stride + blocklength] for i in range(count)]
    )
    assert np.array_equal(got, expect)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=80)
def test_subarray_pack_matches_numpy_slice(rows, cols, data):
    sub_r = data.draw(st.integers(1, rows))
    sub_c = data.draw(st.integers(1, cols))
    start_r = data.draw(st.integers(0, rows - sub_r))
    start_c = data.draw(st.integers(0, cols - sub_c))
    m = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
    dt = Subarray([rows, cols], [sub_r, sub_c], [start_r, start_c], DOUBLE)
    got = TypedBuffer(m, dt).pack().view(np.float64)
    assert np.array_equal(got, m[start_r : start_r + sub_r, start_c : start_c + sub_c].reshape(-1))
