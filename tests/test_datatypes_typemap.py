"""Unit tests for datatype constructors and flattening."""

import pytest

from repro.datatypes import (
    BYTE,
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
    Vector,
)


def blocks_of(dt):
    bl = dt.flatten()
    return list(zip(bl.offsets.tolist(), bl.lengths.tolist()))


def test_primitive_double():
    assert DOUBLE.size == 8
    assert DOUBLE.extent == 8
    assert blocks_of(DOUBLE) == [(0, 8)]
    assert DOUBLE.is_contiguous()


def test_contiguous_merges_to_single_block():
    dt = Contiguous(10, DOUBLE)
    assert dt.size == 80
    assert dt.extent == 80
    assert blocks_of(dt) == [(0, 80)]
    assert dt.is_contiguous()


def test_paper_figure_5_and_6_column_type():
    """The 8x8 matrix of 3-double elements; first column = Vector(8,1,8,elem).

    Figure 5 of the paper shows the column blocks at byte offsets
    0, 192, 384, ... (stride 8 elements x 24 bytes)."""
    element = Contiguous(3, DOUBLE)
    column = Vector(8, 1, 8, element)
    assert element.size == 24
    assert column.size == 8 * 24
    got = blocks_of(column)
    assert got == [(192 * i, 24) for i in range(8)]
    assert column.num_blocks == 8
    assert not column.is_contiguous()


def test_vector_blocklength_gt_one():
    dt = Vector(3, 2, 5, DOUBLE)
    assert dt.size == 3 * 2 * 8
    assert blocks_of(dt) == [(0, 16), (40, 16), (80, 16)]
    assert dt.extent == (2 * 5 + 2) * 8


def test_vector_stride_equals_blocklength_is_contiguous():
    dt = Vector(4, 3, 3, DOUBLE)
    assert blocks_of(dt) == [(0, 96)]


def test_vector_overlap_rejected():
    with pytest.raises(DatatypeError):
        Vector(2, 4, 2, DOUBLE)


def test_hvector_bytes_stride():
    dt = HVector(3, 1, 100, INT)
    assert blocks_of(dt) == [(0, 4), (100, 4), (200, 4)]
    assert dt.extent == 204


def test_indexed_definition_order_preserved():
    dt = Indexed([1, 2], [5, 0], DOUBLE)
    # definition order: block at displacement 5 comes first in the pack stream
    assert blocks_of(dt) == [(40, 8), (0, 16)]
    assert dt.size == 24


def test_indexed_zero_blocklengths_dropped():
    dt = Indexed([2, 0, 1], [0, 50, 4], DOUBLE)
    assert blocks_of(dt) == [(0, 16), (32, 8)]


def test_indexed_all_zero_rejected():
    with pytest.raises(DatatypeError):
        Indexed([0, 0], [0, 1], DOUBLE)


def test_indexed_adjacent_blocks_merge():
    dt = Indexed([2, 3], [0, 2], DOUBLE)
    assert blocks_of(dt) == [(0, 40)]


def test_hindexed():
    dt = HIndexed([2, 1], [16, 0], DOUBLE)
    assert blocks_of(dt) == [(16, 16), (0, 8)]


def test_hindexed_over_noncontiguous_base_rejected_at_construction():
    for base in (Vector(2, 1, 2, DOUBLE), Resized(DOUBLE, 16)):
        with pytest.raises(DatatypeError, match="non-contiguous base"):
            HIndexed([1], [0], base)
    assert HIndexed([1], [0], Contiguous(2, DOUBLE)).size == 16


def test_indexed_block():
    dt = IndexedBlock(2, [0, 4, 8], INT)
    assert blocks_of(dt) == [(0, 8), (16, 8), (32, 8)]
    assert dt.size == 24


def test_struct_interlaced_fields():
    # one "grid point" with interlaced (pressure, temperature) doubles and
    # an int tag, like PETSc's interlaced field storage (paper section 2.1)
    dt = Struct([1, 1, 1], [0, 8, 16], [DOUBLE, DOUBLE, INT])
    assert dt.size == 20
    assert blocks_of(dt) == [(0, 20)]  # adjacent fields merge


def test_struct_with_gaps():
    dt = Struct([1, 1], [0, 16], [INT, INT])
    assert blocks_of(dt) == [(0, 4), (16, 4)]
    assert dt.extent == 20


def test_struct_length_mismatch_rejected():
    with pytest.raises(DatatypeError):
        Struct([1], [0, 8], [DOUBLE, DOUBLE])


def test_subarray_2d_interior():
    # 4x4 array of doubles, select the middle 2x2
    dt = Subarray([4, 4], [2, 2], [1, 1], DOUBLE)
    assert dt.size == 4 * 8
    assert blocks_of(dt) == [(40, 16), (72, 16)]
    assert dt.extent == 16 * 8


def test_subarray_full_is_contiguous():
    dt = Subarray([3, 5], [3, 5], [0, 0], DOUBLE)
    assert blocks_of(dt) == [(0, 120)]


def test_subarray_column():
    dt = Subarray([4, 4], [4, 1], [0, 2], DOUBLE)
    assert blocks_of(dt) == [(16, 8), (48, 8), (80, 8), (112, 8)]


def test_subarray_3d_face():
    # 3x3x3 doubles, the k=0 face (all i, all j, k fixed)
    dt = Subarray([3, 3, 3], [3, 3, 1], [0, 0, 0], DOUBLE)
    assert dt.num_blocks == 9
    assert dt.size == 9 * 8


def test_subarray_fortran_order():
    # F order: first dimension contiguous
    dt = Subarray([4, 4], [1, 4], [2, 0], DOUBLE, order="F")
    # same as C-order Subarray([4,4],[4,1],[0,2]) of the transposed view
    assert dt.num_blocks == 4
    assert dt.size == 32


def test_subarray_validation():
    with pytest.raises(DatatypeError):
        Subarray([4, 4], [3, 3], [2, 2], DOUBLE)  # start+sub > size
    with pytest.raises(DatatypeError):
        Subarray([4], [0], [0], DOUBLE)
    with pytest.raises(DatatypeError):
        Subarray([4], [2], [0], DOUBLE, order="X")


def test_resized_changes_extent_only():
    dt = Resized(INT, 16)
    assert dt.size == 4
    assert dt.extent == 16
    tiled = Contiguous(3, dt)
    assert blocks_of(tiled) == [(0, 4), (16, 4), (32, 4)]


def test_nested_vector_of_vectors():
    # columns of a 2-D matrix where each element is itself strided
    inner = Vector(2, 1, 2, DOUBLE)  # 2 doubles with a 1-double gap
    outer = HVector(3, 1, 64, inner)
    assert outer.size == 3 * 16
    assert outer.num_blocks == 6


def test_contiguous_of_column_counts_blocks():
    element = Contiguous(3, DOUBLE)
    column = Vector(8, 1, 8, element)
    two_columns = Contiguous(2, column)
    # the second copy starts exactly at the column's extent boundary, which
    # abuts the last block of the first copy -- they merge (15, not 16)
    assert two_columns.num_blocks == 15
    assert two_columns.size == 2 * column.size


def test_count_validation():
    with pytest.raises(DatatypeError):
        Contiguous(0, DOUBLE)
    with pytest.raises(DatatypeError):
        Vector(0, 1, 1, DOUBLE)
    with pytest.raises(DatatypeError):
        Contiguous(2, "not a type")


@pytest.mark.parametrize("build", [
    lambda bad: Contiguous(2, bad),
    lambda bad: Vector(2, 1, 2, bad),
    lambda bad: HVector(2, 1, 8, bad),
    lambda bad: Indexed([1, 1], [0, 2], bad),
    lambda bad: HIndexed([1, 1], [0, 16], bad),
    lambda bad: IndexedBlock(1, [0, 2], bad),
    lambda bad: Subarray([4], [2], [1], bad),
    lambda bad: Resized(bad, 16),
    lambda bad: Struct([1, 1], [0, 8], [DOUBLE, bad]),
], ids=["Contiguous", "Vector", "HVector", "Indexed", "HIndexed",
        "IndexedBlock", "Subarray", "Resized", "Struct"])
def test_non_datatype_base_raises_datatype_error(build):
    with pytest.raises(DatatypeError, match="must be a Datatype"):
        build("x")


def test_byte_type():
    assert BYTE.size == 1
    dt = Contiguous(7, BYTE)
    assert blocks_of(dt) == [(0, 7)]
