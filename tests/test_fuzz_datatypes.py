"""Property-based fuzzing of nested derived datatypes: random type trees
pack/unpack against the definition-level typemap of ``tests/_dtype_oracle``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    DOUBLE,
    Contiguous,
    HVector,
    Indexed,
    IndexedBlock,
    Resized,
    TypedBuffer,
    Vector,
    ir,
)
from tests._dtype_oracle import buffer_typemap


@st.composite
def _nonoverlapping_disps(draw, nblocks, blocklength):
    """Ascending displacements with gaps, each fitting `blocklength`."""
    disps = []
    pos = 0
    for _ in range(nblocks):
        pos += draw(st.integers(0, 3))
        disps.append(pos)
        pos += blocklength
    return disps


@st.composite
def datatype_tree(draw, depth=0):
    """A random nested datatype over DOUBLE, with bounded size."""
    if depth >= 2:
        return DOUBLE
    kind = draw(st.sampled_from([
        "primitive", "contiguous", "vector", "hvector", "resized",
        "indexed", "indexed_block",
    ]))
    if kind == "primitive":
        return DOUBLE
    base = draw(datatype_tree(depth=depth + 1))
    if kind == "contiguous":
        return Contiguous(draw(st.integers(1, 4)), base)
    if kind == "vector":
        blocklength = draw(st.integers(1, 3))
        stride = blocklength + draw(st.integers(0, 3))
        return Vector(draw(st.integers(1, 4)), blocklength, stride, base)
    if kind == "hvector":
        blocklength = draw(st.integers(1, 2))
        min_stride = blocklength * base.extent
        stride = min_stride + 8 * draw(st.integers(0, 3))
        return HVector(draw(st.integers(1, 4)), blocklength, stride, base)
    if kind == "indexed":
        # Indexed over a contiguous base only (matching the MPI fast path)
        base = DOUBLE
        nblocks = draw(st.integers(1, 4))
        lens = [draw(st.integers(1, 3)) for _ in range(nblocks)]
        disps = []
        pos = 0
        for length in lens:
            pos += draw(st.integers(0, 3))
            disps.append(pos)
            pos += length
        return Indexed(lens, disps, base)
    if kind == "indexed_block":
        blocklength = draw(st.integers(1, 3))
        nblocks = draw(st.integers(1, 4))
        disps = draw(_nonoverlapping_disps(nblocks, blocklength))
        return IndexedBlock(blocklength, disps, base)
    # resized: only grow the extent (shrinking can overlap copies)
    return Resized(base, base.extent + 8 * draw(st.integers(0, 2)))


def element_indices(dt, count):
    """Index of every DOUBLE of the buffer's typemap, in pack order."""
    return np.asarray([off for off, _ in buffer_typemap(dt, count)]) // 8


@given(datatype_tree(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_pack_matches_brute_force(dt, count):
    full = Contiguous(count, dt) if count > 1 else dt
    nbytes_needed = full.extent
    n = nbytes_needed // 8 + 1
    buf = np.arange(n, dtype=np.float64)
    tb = TypedBuffer(buf, dt, count=count)
    got = tb.pack().view(np.float64)
    expect = buf[element_indices(dt, count)]
    assert np.array_equal(got, expect)


@given(datatype_tree(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_unpack_roundtrip(dt, count):
    full_extent = (Contiguous(count, dt) if count > 1 else dt).extent
    n = full_extent // 8 + 1
    src = np.arange(n, dtype=np.float64) + 1.0
    packed = TypedBuffer(src, dt, count=count).pack()
    dst = np.zeros(n)
    TypedBuffer(dst, dt, count=count).unpack(packed)
    sel = element_indices(dt, count)
    assert np.array_equal(dst[sel], src[sel])
    untouched = np.setdiff1d(np.arange(n), sel)
    assert np.all(dst[untouched] == 0.0)


@given(datatype_tree())
@settings(max_examples=200, deadline=None)
def test_size_extent_invariants(dt):
    blocks = dt.flatten()
    assert dt.size == blocks.size
    assert dt.size <= dt.extent or dt.num_blocks == 1
    # blocks fit inside the extent
    assert int((blocks.offsets + blocks.lengths).max()) <= dt.extent
    # the block count never exceeds the element count
    assert dt.num_blocks <= dt.size // 8


@given(datatype_tree(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_closed_form_bounds_match_the_blocklist(dt, count):
    # start/end/size come off the IR without an expansion; the BlockList
    # built afterwards (and the definition-level typemap) must agree
    plan = ir.compile_datatype(dt, count)
    bounds = (plan.start_bytes, plan.end_bytes, plan.nbytes)
    typemap = buffer_typemap(dt, count)
    assert bounds == (min(off for off, _ in typemap),
                      max(off + n for off, n in typemap),
                      sum(n for _, n in typemap))
    blocks = plan.blocks
    assert bounds == (blocks.offsets.min(),
                      (blocks.offsets + blocks.lengths).max(), blocks.size)
    assert plan.contiguous == (blocks.num_blocks == 1)
