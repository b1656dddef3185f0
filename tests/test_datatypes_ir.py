"""The datatype compiler: canonical IR, pass pipeline and lowering.

Three families of guarantees:

- **canonical form**: equivalent constructor trees compile to *identical*
  IR (the paper's observation that Vector/Indexed/IndexedBlock/HVector
  describing the same layout should not perform differently);
- **byte identity**: the compiled copy programs and block streams are
  exactly what MPI's typemap says, as enumerated from the definitions by
  ``tests/_dtype_oracle.py`` (which never touches ``_build_ir``), for every
  constructor, both compiled and as each constructor's raw translation
  before any pass (property-based, including zero counts, zero-length
  blocks, overlapping displacements, mixed primitives and deep nesting).
  (Where a test name says "legacy", read "reference": it once was a second
  per-class translation in ``src/``; where it says "passes_disabled", read
  "raw translation");
- **structure**: plan sharing across equal instances, op-count shape of
  the lowering, and the compile-cache counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    INT,
    Contiguous,
    DatatypeError,
    HIndexed,
    HVector,
    Indexed,
    IndexedBlock,
    Resized,
    Struct,
    Subarray,
    TypedBuffer,
    Vector,
    ir,
)
from tests._dtype_oracle import (
    buffer_typemap,
    reference_blocks,
    reference_pack,
    reference_unpack,
)

D = DOUBLE


# -- helpers ------------------------------------------------------------------

def zeroed_bytes(n, misalign=0):
    """``n`` writable zero bytes whose data pointer sits ``misalign`` bytes
    past an 8-aligned address (numpy's own allocations never do)."""
    out = np.frombuffer(bytearray(n + 8), dtype=np.uint8)
    start = -out.ctypes.data % 8 + misalign
    return out[start:start + n]


def roundtrip_identical(dt, count=1, offset_bytes=0, misalign=0):
    """pack/unpack via the compiled program vs the typemap
    enumerated from the definitions, byte for byte, on a deterministic
    pattern buffer."""
    reach = (max(count * dt.extent, ir.compile_datatype(dt, count).end_bytes)
             if count else 0)
    need = offset_bytes + reach + 64
    src = np.arange(need, dtype=np.uint8)
    buf = zeroed_bytes(need, misalign)
    buf[:] = src
    tb = TypedBuffer(buf, dt, count=count, offset_bytes=offset_bytes)
    packed = tb.pack()
    assert packed.tobytes() == reference_pack(src, dt, count, offset_bytes).tobytes()
    assert tb.pack().tobytes() == packed.tobytes()  # again, on built state

    # unpack a fresh pattern into a zeroed buffer, typed and by the reference
    wire = (np.arange(len(packed), dtype=np.uint8) + 7).astype(np.uint8)
    a = TypedBuffer(zeroed_bytes(need, misalign), dt, count=count,
                    offset_bytes=offset_bytes)
    expected = np.zeros(need, dtype=np.uint8)
    a.unpack(wire)
    reference_unpack(expected, dt, wire, count, offset_bytes)
    assert a._bytes.tobytes() == expected.tobytes()


def blocks_identical(dt, count):
    """The plan's merged block stream vs the typemap's."""
    blocks = ir.compile_datatype(dt, count).blocks
    assert list(map(list, blocks)) == reference_blocks(dt, count)


def raw_translation(dt, count):
    """``count`` copies of ``dt`` as its constructor translates them, before
    any pass runs (the bases it builds on are canonical already)."""
    return ir.loop(count, dt.extent, dt._build_ir())


def raw_translation_identical(dt, count):
    """The raw translation's block stream is the typemap's, and the bounds
    it carries from construction are its expansion's."""
    raw = raw_translation(dt, count)
    assert list(map(list, ir.to_blocklist(raw))) == reference_blocks(dt, count)
    offs, lens = ir._expand(raw)
    assert (raw.lo, raw.hi, raw.size, raw.runs) == \
        (offs.min(), (offs + lens).max(), lens.sum(), len(offs))


# -- canonical form -----------------------------------------------------------

def test_equivalent_strided_specs_share_one_canonical_ir():
    specs = [
        Vector(4, 2, 4, D),
        Indexed([2, 2, 2, 2], [0, 4, 8, 12], D),
        IndexedBlock(2, [0, 4, 8, 12], D),
        HVector(4, 2, 32, D),
    ]
    irs = {ir.ir_of(s) for s in specs}
    assert irs == {ir.Loop(count=4, stride=32,
                           child=ir.Block(offset=0, length=16))}


def test_fully_contiguous_specs_normalize_to_a_single_block():
    specs = [
        Contiguous(2, Vector(2, 2, 2, D)),
        Indexed([8], [0], D),
        Contiguous(8, D),
    ]
    assert {ir.ir_of(s) for s in specs} == {ir.Block(offset=0, length=64)}


def test_abutting_struct_members_coalesce():
    s = Struct([2, 2], [0, 16], [D, D])
    assert ir.ir_of(s) == ir.Block(offset=0, length=32)


def test_vector_of_full_rows_is_contiguous():
    # blocklength == stride: no holes, a vector in name only
    assert ir.ir_of(Vector(5, 3, 3, D)) == ir.Block(offset=0, length=120)


def test_nested_loop_collapse():
    # Contiguous over a vector whose padded extent equals count*stride:
    # the outer replication step lines up and the loops fuse into one
    v = Resized(Vector(4, 1, 2, D), 64)
    c = Contiguous(3, v)
    assert ir.ir_of(c) == ir.Loop(count=12, stride=16,
                                  child=ir.Block(offset=0, length=8))


def test_scatter_rerolls_to_strided_loop():
    # uniform lengths + uniform stride: the Indexed fast path lands on
    # the same rolled loop a Vector would
    i = Indexed([1, 1, 1, 1, 1, 1], [0, 3, 6, 9, 12, 15], D)
    assert ir.ir_of(i) == ir.Loop(count=6, stride=24,
                                  child=ir.Block(offset=0, length=8))


def test_canonical_ir_means_shared_plan_and_shared_blocklist():
    a = Vector(8, 1, 8, D)
    b = IndexedBlock(1, list(range(0, 64, 8)), D)
    assert a.struct_key() != b.struct_key()  # different constructors...
    pa, pb = ir.compile_datatype(a), ir.compile_datatype(b)
    assert pa.ir == pb.ir  # ...same canonical IR
    assert np.array_equal(pa.blocks.offsets, pb.blocks.offsets)
    assert np.array_equal(pa.blocks.lengths, pb.blocks.lengths)


def test_flatten_is_memoized_across_equal_instances():
    a = Vector(8, 1, 8, D)
    b = Vector(8, 1, 8, D)
    assert a is not b
    assert a.flatten() is b.flatten()


# -- every constructor against the definition-level typemap -------------------

LEGACY_EQUIV_SPECS = [
    D,
    BYTE,
    Contiguous(5, D),
    Contiguous(3, Contiguous(2, INT)),
    Vector(4, 2, 5, D),
    Vector(3, 2, 2, D),
    HVector(3, 1, 24, D),
    Indexed([2, 0, 3], [0, 5, 7], D),
    Indexed([1, 2], [3, 0], D),           # unsorted displacements
    IndexedBlock(2, [0, 6, 3], D),
    HIndexed([2, 1], [8, 40], D),
    Struct([1, 2], [0, 16], [INT, D]),
    Struct([2, 1], [4, 0], [BYTE, D]),
    Subarray([4, 5], [2, 3], [1, 1], D),
    Subarray([4, 5], [2, 3], [1, 1], D, order="F"),
    Resized(Vector(2, 1, 3, D), 64),
    Vector(2, 2, 3, Contiguous(2, D)),
    Indexed([2, 1], [0, 4], Vector(2, 1, 2, D)),  # noncontiguous base
    # (ids above are pinned by position: append only)
    HIndexed([1, 2, 1], [48, 0, 24], Contiguous(2, INT)),  # unsorted, abutting
    Struct([1, 3, 2], [0, 4, 16], [BYTE, BYTE, Vector(2, 1, 2, INT)]),
    Subarray([3, 4, 5], [2, 2, 3], [1, 0, 2], INT),
    Subarray([3, 4, 5], [2, 2, 3], [1, 0, 2], Struct([1, 1], [0, 8], [INT, D]),
             order="F"),
    IndexedBlock(2, [5, 0], Resized(Struct([1, 1], [0, 4], [BYTE, INT]), 16)),
]
SPEC_IDS = [type(s).__name__ + str(i) for i, s in enumerate(LEGACY_EQUIV_SPECS)]


@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS, ids=SPEC_IDS)
def test_ir_blocklist_matches_legacy_flatten(dt):
    assert list(map(list, dt.flatten())) == reference_blocks(dt)


def _all_counts_and_offsets(dt):
    for count in (0, 1, 3):
        for offset_bytes in (0, 8):
            roundtrip_identical(dt, count=count, offset_bytes=offset_bytes)
        if count:
            blocks_identical(dt, count)


@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS, ids=SPEC_IDS)
def test_roundtrip_every_constructor(dt):
    _all_counts_and_offsets(dt)
    roundtrip_identical(dt, count=2, offset_bytes=8)


@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS, ids=SPEC_IDS)
def test_roundtrip_every_constructor_passes_disabled(dt):
    for count in (1, 2, 3):
        raw_translation_identical(dt, count)


# -- edge cases ---------------------------------------------------------------

def test_zero_count_typed_buffer():
    tb = TypedBuffer(np.zeros(16, dtype=np.uint8), D, count=0)
    assert tb.nbytes == 0
    assert tb.pack().size == 0
    tb.unpack(np.empty(0, dtype=np.uint8))  # no-op, no error


def test_zero_length_indexed_blocks_drop_out():
    dt = Indexed([0, 2, 0, 1], [9, 0, 5, 4], D)
    assert dt.size == 3 * 8
    roundtrip_identical(dt, count=2)


def test_overlapping_displacements_unpack_last_wins():
    # MPI leaves overlapping unpack targets implementation-defined; we
    # pin sequential last-wins (what the entry-by-entry reference does)
    dt = Indexed([2, 2], [0, 1], D)
    roundtrip_identical(dt, count=1)
    dst = np.zeros(3)
    TypedBuffer(dst, dt).unpack(np.array([1.0, 2.0, 3.0, 4.0]).view(np.uint8))
    assert dst.tolist() == [1.0, 3.0, 4.0]


def test_deep_nesting_roundtrip():
    dt = Vector(2, 1, 2, HVector(2, 1, 48, Contiguous(2, Vector(2, 1, 2, D))))
    roundtrip_identical(dt, count=2, offset_bytes=16)


# -- property-based byte identity ---------------------------------------------

@st.composite
def datatype_tree(draw, depth=0):
    kinds = ["primitive", "contiguous", "vector", "hvector", "indexed",
             "hindexed", "indexed_block", "struct", "subarray", "resized"]
    kind = "primitive" if depth >= 2 else draw(st.sampled_from(kinds))
    if kind == "primitive":
        return draw(st.sampled_from([D, INT, BYTE]))
    base = draw(datatype_tree(depth=depth + 1))
    if kind == "contiguous":
        return Contiguous(draw(st.integers(1, 4)), base)
    if kind == "vector":
        blocklength = draw(st.integers(1, 3))
        stride = blocklength + draw(st.integers(0, 3))
        return Vector(draw(st.integers(1, 4)), blocklength, stride, base)
    if kind == "hvector":
        blocklength = draw(st.integers(1, 2))
        stride = blocklength * base.extent + 8 * draw(st.integers(0, 2))
        return HVector(draw(st.integers(1, 3)), blocklength, stride, base)
    if kind == "indexed":
        nblocks = draw(st.integers(1, 4))
        lens = [draw(st.integers(0, 3)) for _ in range(nblocks)]
        lens[draw(st.integers(0, nblocks - 1))] = draw(st.integers(1, 3))
        disps, pos = [], 0
        for length in lens:
            pos += draw(st.integers(0, 2))
            disps.append(pos)
            pos += length
        return Indexed(lens, disps, base)
    if kind == "hindexed":
        # contiguous bases only; byte displacements in any order, any gap
        base = draw(st.sampled_from([D, INT, BYTE, Contiguous(2, INT)]))
        lens = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        slots = draw(st.permutations(range(len(lens))))
        return HIndexed(lens, [40 * k + draw(st.integers(0, 16)) for k in slots],
                        base)
    if kind == "subarray":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        subsizes = [draw(st.integers(1, n)) for n in sizes]
        starts = [draw(st.integers(0, n - m)) for n, m in zip(sizes, subsizes)]
        return Subarray(sizes, subsizes, starts, base,
                        order=draw(st.sampled_from("CF")))
    if kind == "indexed_block":
        blocklength = draw(st.integers(1, 3))
        nblocks = draw(st.integers(1, 3))
        disps, pos = [], 0
        for _ in range(nblocks):
            pos += draw(st.integers(0, 2))
            disps.append(pos)
            pos += blocklength
        return IndexedBlock(blocklength, disps, base)
    if kind == "struct":
        n = draw(st.integers(1, 3))
        lens = [draw(st.integers(1, 2)) for _ in range(n)]
        disps, pos = [], 0
        for length in lens:
            pos += draw(st.integers(0, 16))
            disps.append(pos)
            pos += length * base.extent
        return Struct(lens, disps, [base] * n)
    return Resized(base, base.extent + 8 * draw(st.integers(0, 2)))


@given(datatype_tree(), st.integers(0, 3), st.integers(0, 17), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_fuzz_ir_matches_legacy(dt, count, offset_bytes, misalign):
    roundtrip_identical(dt, count=count, offset_bytes=offset_bytes,
                        misalign=misalign)
    if count:
        blocks_identical(dt, count)


@given(datatype_tree(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_fuzz_ir_matches_legacy_passes_disabled(dt, count):
    raw_translation_identical(dt, count)


@given(datatype_tree())
@settings(max_examples=100, deadline=None)
def test_fuzz_canonical_ir_is_a_fixpoint(dt):
    # the pass pipeline must be idempotent: optimizing canonical IR
    # again changes nothing
    canonical = ir.ir_of(dt)
    assert ir.optimize(canonical) == canonical


# -- lowering structure -------------------------------------------------------

def test_optimized_lowering_uses_strided_ops():
    # 4 vectors of 8 doubles at stride 8: the count loop steps past each
    # vector, so the whole (4, 8) nest stays rolled and is one strided op
    plan = ir.compile_datatype(Vector(8, 1, 8, D), 4)
    assert plan.program.num_ops == 1
    assert plan.program.op_kinds() == {"strided": 1}


def test_contiguous_lowers_to_single_copy():
    plan = ir.compile_datatype(Contiguous(64, D))
    assert plan.program.num_ops == 1
    assert plan.program.op_kinds() == {"contig": 1}
    # 64 raw element blocks coalesced into one: ratio = blocks/raw
    assert plan.coalesced_ratio == pytest.approx(1 / 64)


def test_huge_irregular_layout_falls_back_to_gather():
    # 3000 ragged runs blow the python-op budget: the lowering must
    # emit one vectorized gather, not thousands of interpreted ops
    rng = np.random.default_rng(0)
    disps = np.cumsum(rng.integers(2, 5, size=3000))
    lens = rng.integers(1, 2, size=3000)
    dt = Indexed(lens.tolist(), disps.tolist(), D)
    plan = ir.compile_datatype(dt)
    assert plan.program.op_kinds() == {"gather": 1}
    roundtrip_identical(dt)


#: a base type per machine-word width a copy op can pick
WORD_BASES = {1: CHAR, 2: Contiguous(2, CHAR), 4: INT, 8: D}


def lone_op(dt, kind):
    """The single copy op ``dt`` lowers to, which must be a ``kind`` op."""
    op, = ir.compile_datatype(dt).program.ops
    assert op.kind == kind
    return op


@pytest.mark.parametrize("misalign", (0, 1))
@pytest.mark.parametrize("offset_bytes", (0, 1, 3, 4, 8))
@pytest.mark.parametrize("width", (1, 2, 4, 8))
def test_word_wide_ops_at_unaligned_bases(width, offset_bytes, misalign):
    # the ops move `width`-byte words whatever the base address is: the
    # buffer's own data pointer and offset_bytes both break the alignment
    base = WORD_BASES[width]
    strided = Vector(9, 1, 3, base)
    ragged = Indexed([1, 2, 1, 3, 1, 2], [0, 2, 5, 7, 12, 14], base)
    for dt, kind in ((strided, "strided"), (ragged, "gather")):
        assert lone_op(dt, kind).word.itemsize == width
        for count in (1, 3):
            roundtrip_identical(dt, count, offset_bytes, misalign)


def test_strided_word_divides_stride_and_run_length():
    # 12-byte runs every 20 bytes: 4 divides both, 8 neither
    assert lone_op(HVector(5, 3, 20, INT), "strided").word.itemsize == 4
    # 8-byte runs every 12 bytes, and 6-byte runs every 16
    assert lone_op(HVector(5, 1, 12, D), "strided").word.itemsize == 4
    assert lone_op(HVector(5, 6, 16, BYTE), "strided").word.itemsize == 2


def test_gather_index_is_built_once_and_never_shifted():
    ragged = Indexed([1, 2, 1, 3, 1, 2], [0, 2, 5, 7, 12, 14], D)
    op = lone_op(ragged, "gather")
    roundtrip_identical(ragged, offset_bytes=8)
    index = op._index
    before = index.copy()
    for offset_bytes in (0, 5, 24):
        roundtrip_identical(ragged, offset_bytes=offset_bytes)
    assert op._index is index and np.array_equal(index, before)
    assert index.min() == 0  # counted from the op's lowest word


@pytest.mark.parametrize("misalign", (0, 1))
@pytest.mark.parametrize("offset_bytes", (16, 17, 19))
def test_negative_displacement_at_positive_offset(offset_bytes, misalign):
    # both ops start *below* buf + offset_bytes
    strided = HIndexed([1] * 5, [-16, -8, 0, 8, 16], INT)
    ragged = HIndexed([1, 2, 1, 1, 2, 1], [-12, -4, 8, 16, 24, 36], INT)
    assert lone_op(strided, "strided").src == -16
    assert lone_op(ragged, "gather").low == -12
    for dt in (strided, ragged):
        roundtrip_identical(dt, 1, offset_bytes, misalign)
        roundtrip_identical(dt, 2, offset_bytes, misalign)
        with pytest.raises(DatatypeError):
            TypedBuffer(np.zeros(128, dtype=np.uint8), dt, offset_bytes=8)


def transpose_type(n):
    """The Fig. 12 transpose type: column ``j`` of an ``n x n`` matrix of
    doubles is element ``j`` of the result."""
    return Contiguous(n, Resized(Vector(n, 1, n, D), D.extent))


@pytest.mark.parametrize("n", (96, 768))
def test_transpose_lowers_to_one_strided_op(n, monkeypatch):
    class NoGather:
        def __init__(self, *args):
            raise AssertionError("a gather index was built")

    monkeypatch.setattr(ir, "_GatherOp", NoGather)
    ir.cache_clear()
    m = np.random.default_rng(n).random((n, n))
    tb = TypedBuffer(m, transpose_type(n))
    op, = tb.plan.program.ops
    assert op.kind == "strided" and tb.plan.ir.ops == 1
    assert op.shape == (n, n, 1) and op.strides == (8, 8 * n, 8)
    packed = tb.pack()
    assert np.array_equal(packed.view(np.float64), m.T.reshape(-1))
    dst = np.zeros_like(m)
    TypedBuffer(dst, transpose_type(n)).unpack(packed)
    assert np.array_equal(dst, m)
    ir.cache_clear()


@pytest.mark.parametrize("count", (5, 2 * ir._EXPAND_OPS_LIMIT))
def test_overlapping_nest_keeps_sequential_order(count):
    # 16-byte runs at 0 and 24, repeated every 16 bytes: iteration i's
    # second run overlaps iteration i+1's first, so the nest is no
    # single strided op and unpack keeps the last write
    dt = Contiguous(count, Resized(Vector(2, 2, 3, D), 16))
    node = ir.ir_of(dt)
    assert node.nest is None
    assert node.ops == ir.lower(node).num_ops == (
        count if count <= ir._EXPAND_OPS_LIMIT else 1)
    roundtrip_identical(dt, offset_bytes=8)


@st.composite
def strided_nest(draw, depth=0):
    """Nests of Vector/HVector/Subarray/Resized over one primitive."""
    if depth >= 3 or (depth and draw(st.booleans())):
        return draw(st.sampled_from([D, INT, BYTE, Contiguous(3, BYTE)]))
    base = draw(strided_nest(depth=depth + 1))
    kind = draw(st.sampled_from(["vector", "hvector", "subarray", "resized"]))
    if kind == "vector":
        blocklength = draw(st.integers(1, 3))
        return Vector(draw(st.integers(1, 4)), blocklength,
                      blocklength + draw(st.integers(0, 3)), base)
    if kind == "hvector":
        blocklength = draw(st.integers(1, 2))
        stride = blocklength * base.extent + draw(st.integers(0, 9))
        return HVector(draw(st.integers(1, 3)), blocklength, stride, base)
    if kind == "subarray":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        subsizes = [draw(st.integers(1, n)) for n in sizes]
        starts = [draw(st.integers(0, n - m)) for n, m in zip(sizes, subsizes)]
        return Subarray(sizes, subsizes, starts, base,
                        order=draw(st.sampled_from("CF")))
    # any extent, so the copies of an outer count may interleave or overlap
    return Resized(base, draw(st.integers(1, base.extent + 16)))


@given(strided_nest(), st.integers(1, 2 * ir._EXPAND_OPS_LIMIT),
       st.integers(0, 17), st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_fuzz_strided_nests(dt, outer, offset_bytes, misalign):
    dt = Contiguous(outer, dt)
    node = ir.ir_of(dt)
    assert node.ops == ir.lower(node).num_ops
    if node.__class__ is ir.Loop and node.nest is not None:
        assert node.ops == 1
    roundtrip_identical(dt, offset_bytes=offset_bytes, misalign=misalign)


def _reference_nest(node, shift=0):
    """``(offset, length)`` runs of a Block/Loop nest, by definition."""
    if isinstance(node, ir.Block):
        return [(shift + node.offset, node.length)]
    return [run for i in range(node.count)
            for run in _reference_nest(node.child, shift + i * node.stride)]


@given(st.tuples(st.integers(1, 130), st.integers(-40, 40)),
       st.lists(st.tuples(st.integers(1, 6), st.integers(-40, 40)),
                max_size=2),
       st.integers(1, 12), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_fuzz_hand_built_nests_with_negative_strides(outer, inner, blen,
                                                     unaligned):
    dims = [outer] + inner
    node = ir.Block(0, blen)
    for count, stride in reversed(dims):
        node = ir.Loop(count, stride, node)
    program = ir.lower(node)
    assert node.ops == program.num_ops
    runs = _reference_nest(node)
    base = unaligned - node.lo
    size = base + node.hi + 8
    src = (np.arange(size) % 251).astype(np.uint8)
    want = np.concatenate([src[base + o:base + o + n] for o, n in runs])
    assert program.pack(src, base).tobytes() == want.tobytes()
    wire = (np.arange(node.size) % 241 + 3).astype(np.uint8)
    got, expected = np.zeros(size, np.uint8), np.zeros(size, np.uint8)
    program.unpack(got, base, wire)
    pos = 0
    for o, n in runs:  # sequential: an overlapped byte keeps the last write
        expected[base + o:base + o + n] = wire[pos:pos + n]
        pos += n
    assert got.tobytes() == expected.tobytes()


def test_compile_cache_hits_across_instances():
    ir.cache_clear()
    before = ir.cache_stats()
    a = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(7, 2, 9, D),
                    count=2)
    b = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(7, 2, 9, D),
                    count=2)
    after = ir.cache_stats()
    assert after["misses"] >= before["misses"] + 1
    assert after["hits"] >= before["hits"] + 1
    assert a.plan is b.plan


def test_plan_info_feeds_layout_summary():
    # what a send attaches to its profiling span
    tb = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(8, 1, 8, D),
                     count=4)
    info = tb.plan.info()
    assert info["ir_ops"] == 1
    assert info["ir_raw_blocks"] == 32
    assert 0.0 <= info["ir_coalesced_ratio"] <= 1.0


# -- one-sweep canonicalisation -----------------------------------------------

def rebuilt_raw(node):
    """The same tree from the public constructors: nothing marked canonical."""
    if isinstance(node, ir.Block):
        return ir.Block(node.offset, node.length)
    if isinstance(node, ir.Loop):
        return ir.Loop(node.count, node.stride, rebuilt_raw(node.child))
    if isinstance(node, ir.Seq):
        return ir.Seq(tuple(rebuilt_raw(ch) for ch in node.children))
    return ir.Scatter(node.offsets.copy(), node.lengths.copy())


@given(datatype_tree(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_fuzz_sweep_is_idempotent_on_the_structure(dt, count):
    # not only "stops at what it marked": the canonical form, rebuilt with
    # no node marked, sweeps to itself
    canonical = ir.compile_datatype(dt, count).ir
    again = ir.optimize(rebuilt_raw(canonical))
    assert again == canonical
    assert ir.optimize(ir.optimize(again)) == ir.optimize(again) == again


def test_new_loop_chain_collapses_into_one_rolled_loop():
    # blocklength == stride makes the vector a perfect nest over a two-run
    # base: all six base copies are one rolled loop
    base = Struct([1, 1], [0, 8], [INT, INT])
    two_runs = ir.ir_of(base)
    assert two_runs == ir.Seq((ir.Block(0, 4), ir.Block(8, 4)))
    assert ir.ir_of(Vector(3, 2, 2, base)) == ir.Loop(6, base.extent, two_runs)
    # ... and built in two constructor steps, the inner type was canonical
    # (rolled) before the outer loop collapsed onto it
    inner = Contiguous(2, base)
    assert ir.ir_of(inner) == ir.Loop(2, 12, two_runs)
    assert ir.ir_of(Contiguous(3, inner)) == ir.Loop(6, 12, two_runs)
    roundtrip_identical(Vector(3, 2, 2, base), count=2)
    roundtrip_identical(Contiguous(3, inner), count=2)
    blocks_identical(Contiguous(3, inner), 2)


def test_loop_over_abutting_runs_stays_rolled():
    # 3 x (4 x two runs whose tail abuts the next copy's head): the loops
    # collapse into one, and the merged stream still fuses 24 raw runs
    # into 13 blocks
    base = Struct([1, 1], [0, 12], [INT, INT])      # extent 16: tail abuts head
    dt = Contiguous(3, Contiguous(4, base))
    assert ir.ir_of(dt) == ir.Loop(12, 16, ir.Seq((ir.Block(0, 4),
                                                   ir.Block(12, 4))))
    assert ir.compile_datatype(dt).blocks.num_blocks == 13
    roundtrip_identical(dt)
    blocks_identical(dt, 1)


def test_node_attributes_match_an_expansion():
    nodes = [
        ir.Loop(3, -16, ir.Block(40, 8)),                     # walks downwards
        ir.Loop(4, 4, ir.Block(0, 8)),                        # overlapping
        ir.Seq((ir.Block(24, 8), ir.Loop(2, 8, ir.Block(-8, 8)))),
        ir.Loop(2, 64, ir.Scatter([8, 0, 32], [8, 4, 16])),
    ]
    for node in nodes:
        offs, lens = ir._expand(node)
        assert (node.lo, node.hi) == (offs.min(), (offs + lens).max())
        assert (node.size, node.runs) == (lens.sum(), len(offs))
        canonical = ir.optimize(node)
        assert (canonical.lo, canonical.hi, canonical.size) == \
            (node.lo, node.hi, node.size)
        merged = ir.to_blocklist(node)
        again = ir.to_blocklist(canonical)
        assert list(merged) == list(again)


# -- closed-form bounds, plans materialised on first use ----------------------

BOUNDS_SPECS = LEGACY_EQUIV_SPECS + [
    HIndexed([1, 2, 1], [-12, 8, -32], INT),              # below the origin
    Indexed([2, 2], [0, 1], D),                           # overlapping blocks
    Resized(Vector(3, 1, 2, D), 16),                      # copies interleave
    Resized(HIndexed([1, 1], [-8, 8], D), 8),
]


def hasattr_filled(plan, name):
    """Has the plan's lazy part been built?  (``hasattr`` would build it.)"""
    try:
        object.__getattribute__(plan, name)
    except AttributeError:
        return False
    return True


def assert_closed_form_bounds(dt, count):
    plan = ir.compile_datatype(dt, count)
    typemap = buffer_typemap(dt, count)
    assert plan.start_bytes == min(off for off, _ in typemap)
    assert plan.end_bytes == max(off + n for off, n in typemap)
    assert plan.nbytes == sum(n for _, n in typemap) == count * dt.size
    blocks = plan.blocks
    assert plan.start_bytes == blocks.offsets.min()
    assert plan.end_bytes == (blocks.offsets + blocks.lengths).max()
    assert plan.nbytes == blocks.size
    assert plan.contiguous == (blocks.num_blocks == 1)


@pytest.mark.parametrize("dt", BOUNDS_SPECS,
                         ids=[type(s).__name__ + str(i)
                              for i, s in enumerate(BOUNDS_SPECS)])
def test_closed_form_bounds_match_the_blocklist(dt):
    for count in (1, 2, 5):
        assert_closed_form_bounds(dt, count)


@pytest.mark.parametrize("dt", BOUNDS_SPECS[-4:], ids=["below", "overlap",
                                                       "interleave", "both"])
def test_closed_form_bounds_passes_disabled(dt):
    for count in (1, 3):
        raw = raw_translation(dt, count)
        typemap = buffer_typemap(dt, count)
        assert raw.lo == min(off for off, _ in typemap)
        assert raw.hi == max(off + n for off, n in typemap)
        assert raw.size == sum(n for _, n in typemap) == count * dt.size
        raw_translation_identical(dt, count)


def test_typed_buffer_bounds_checks_need_no_expansion():
    ir.cache_clear()
    dt = HIndexed([1, 2, 1], [-12, 8, -32], INT)
    with pytest.raises(DatatypeError, match="before the buffer start"):
        TypedBuffer(np.zeros(64, dtype=np.uint8), dt, offset_bytes=24)
    with pytest.raises(DatatypeError, match="buffer too small"):
        TypedBuffer(np.zeros(40, dtype=np.uint8), dt, offset_bytes=32)
    tb = TypedBuffer(np.zeros(64, dtype=np.uint8), dt, offset_bytes=32)
    assert tb.nbytes == 16 and not tb.is_contiguous()
    assert not hasattr_filled(tb.plan, "blocks")
    assert not hasattr_filled(tb.plan, "program")


@pytest.mark.parametrize("first", ["program", "blocks"])
@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS, ids=SPEC_IDS)
def test_plan_parts_materialise_in_either_order(dt, first):
    ir.cache_clear()
    plan = ir.compile_datatype(dt, 3)
    assert not hasattr_filled(plan, "blocks")
    assert not hasattr_filled(plan, "program")
    second = "blocks" if first == "program" else "program"
    built = getattr(plan, first)
    assert hasattr_filled(plan, first) and not hasattr_filled(plan, second)
    assert getattr(plan, first) is built          # stored, not rebuilt
    src = np.arange(3 * dt.extent + 64, dtype=np.uint8)
    assert plan.program.pack(src, 0).tobytes() == \
        reference_pack(src, dt, 3).tobytes()
    assert list(map(list, plan.blocks)) == reference_blocks(dt, 3)
    assert plan.program.nbytes == plan.blocks.size == plan.nbytes


def test_a_base_type_never_lowers_or_expands():
    ir.cache_clear()
    base = Vector(3, 1, 2, D)
    outer = Indexed([1, 2], [0, 2], base)     # asks base.is_contiguous() too
    tb = TypedBuffer(np.zeros(outer.extent // 8 + 1), outer)
    tb.pack()
    base_plan = ir.compile_datatype(base)
    assert not hasattr_filled(base_plan, "blocks")
    assert not hasattr_filled(base_plan, "program")
    # packed only: the outer plan has a program and still no BlockList
    assert hasattr_filled(tb.plan, "program")
    assert not hasattr_filled(tb.plan, "blocks")
    assert tb.plan.blocks is outer.flatten()


def test_profiling_builds_no_block_stream_of_its_own():
    """The coalesced-ratio histogram is observed where a plan's BlockList
    is first built, so a profiling session expands no plan that an
    unprofiled run leaves unexpanded."""
    from repro.prof import session

    reg = session.enable()
    try:
        ir.cache_clear()
        base = Vector(1000, 1, 4, D)
        outer = ir.compile_datatype(Contiguous(3, base))
        base_plan = ir.compile_datatype(base)
        assert not hasattr_filled(base_plan, "blocks")
        assert not hasattr_filled(outer, "blocks")
        ratio = reg.histogram("repro_datatype_ir_coalesced_ratio")
        assert ratio.count == 0
        outer.blocks
        assert ratio.count == 1
        assert ratio.sum == pytest.approx(outer.coalesced_ratio)
        assert not hasattr_filled(base_plan, "blocks")
    finally:
        session.disable()


def test_is_contiguous_reads_the_canonical_ir():
    ir.cache_clear()
    cases = {
        Contiguous(4, D): True,
        Vector(3, 2, 2, D): True,
        Vector(3, 1, 2, D): False,
        Resized(D, 16): False,                       # one block, padded extent
        HIndexed([2], [8], D): False,                # one block, off the origin
        Struct([1, 1], [0, 8], [D, D]): True,
    }
    for dt, expected in cases.items():
        assert dt.is_contiguous() is expected
        assert not hasattr_filled(ir.compile_datatype(dt), "blocks")
    # a TypedBuffer only asks for one merged block, wherever it starts
    assert TypedBuffer(np.zeros(4), HIndexed([2], [8], D)).is_contiguous()
    assert TypedBuffer(np.zeros(4), Resized(D, 16), count=2).is_contiguous() is False


def test_session_module_is_resolved_once(monkeypatch):
    # the profiling session is looked up by the first compile, not by
    # every call: a second import statement would go through __import__
    import builtins
    ir.compile_datatype(D)
    assert ir._session is not None
    calls = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        calls.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    ir.cache_clear()
    ir.compile_datatype(Vector(5, 1, 3, D))     # miss
    ir.compile_datatype(Vector(5, 1, 3, D))     # hit
    monkeypatch.undo()
    assert calls == []
