"""Datatype-signature matching (repro.analyze.signatures) over the
typemap signatures of :mod:`repro.datatypes`."""

import numpy as np
import pytest

from repro.analyze import Report, render_signature, signature_prefix
from repro.datatypes import (
    DOUBLE,
    INT,
    Contiguous,
    Struct,
    TypedBuffer,
    Vector,
)
from repro.datatypes.typemap import (
    _rle_repeat,
    primitive_for,
    sig_crc,
    signature_hash,
)


# -- typemap signatures -------------------------------------------------------

def test_primitive_signature():
    assert DOUBLE.typemap_signature() == (("DOUBLE", 1),)
    assert TypedBuffer(np.zeros(5), DOUBLE, 5).signature() == (("DOUBLE", 5),)


def test_vector_signature_merges_runs():
    # 4 blocks of 2 doubles: signature ignores displacements entirely
    v = Vector(4, 2, 8, DOUBLE)
    assert v.typemap_signature() == (("DOUBLE", 8),)


def test_struct_signature_preserves_field_order():
    s = Struct([3, 2], [0, 32], [DOUBLE, INT])
    assert s.typemap_signature() == (("DOUBLE", 3), ("INT", 2))
    # count=2 repeats the whole struct, so runs cannot merge at the seam
    assert TypedBuffer(np.zeros(10), s, 2).signature() == (
        ("DOUBLE", 3), ("INT", 2), ("DOUBLE", 3), ("INT", 2),
    )


def test_rle_repeat_boundary_merge():
    sig = (("A", 1), ("B", 2), ("A", 3))
    assert _rle_repeat(sig, 1) == sig
    assert _rle_repeat(sig, 3) == (
        ("A", 1), ("B", 2), ("A", 4), ("B", 2), ("A", 4), ("B", 2), ("A", 3),
    )
    # total element count is always preserved
    assert sum(c for _n, c in _rle_repeat(sig, 7)) == 6 * 7


def test_rle_repeat_caps_explosive_signatures():
    # a struct whose repetition cannot merge produces 2 runs per copy;
    # huge counts collapse to a "..." summary instead of a giant tuple
    sig = (("DOUBLE", 1), ("INT", 1))
    out = _rle_repeat(sig, 10 ** 6)
    assert out == (("...", 2 * 10 ** 6),)


def test_signature_hash_stable_and_canonical():
    v = Vector(4, 2, 8, DOUBLE)
    c = Contiguous(8, DOUBLE)
    # same signature => same hash, even for different constructors
    assert signature_hash(v, 1) == signature_hash(c, 1)
    assert signature_hash(v, 1) == sig_crc((("DOUBLE", 8),))
    assert signature_hash(v, 1) != signature_hash(Contiguous(8, INT), 1)


def test_primitive_for_returns_shared_instances():
    assert primitive_for(np.dtype(np.float64)) is DOUBLE
    assert primitive_for(np.dtype(np.int32)) is INT


def test_typed_buffer_signature():
    buf = np.zeros(16, dtype=np.float64)
    tb = TypedBuffer(buf, DOUBLE, count=16)
    assert tb.signature() == (("DOUBLE", 16),)
    assert tb.signature_hash() == sig_crc((("DOUBLE", 16),))
    empty = TypedBuffer(buf, DOUBLE, count=0)
    assert empty.signature() == ()
    assert empty.signature_hash() == 0


# -- prefix matching ----------------------------------------------------------

def test_prefix_equal_and_shorter():
    assert signature_prefix((("DOUBLE", 4),), (("DOUBLE", 4),))
    assert signature_prefix((("DOUBLE", 3),), (("DOUBLE", 4),))
    assert signature_prefix((), (("DOUBLE", 4),))


def test_prefix_rejects_longer_send():
    assert not signature_prefix((("DOUBLE", 5),), (("DOUBLE", 4),))


def test_prefix_rejects_type_mismatch():
    assert not signature_prefix((("DOUBLE", 4),), (("INT", 4),))
    assert not signature_prefix(
        (("DOUBLE", 2), ("INT", 1)), (("DOUBLE", 2), ("DOUBLE", 1)),
    )


def test_prefix_across_run_boundaries():
    # 8 doubles sent as one run match 8 doubles received as two runs
    assert signature_prefix((("DOUBLE", 8),), (("DOUBLE", 3), ("DOUBLE", 5)))
    assert signature_prefix((("DOUBLE", 3), ("DOUBLE", 5)), (("DOUBLE", 8),))


def test_prefix_summarised_compares_counts_only():
    assert signature_prefix((("...", 10),), (("DOUBLE", 12),))
    assert not signature_prefix((("...", 20),), (("DOUBLE", 12),))


def test_render_signature():
    assert render_signature((("DOUBLE", 8), ("INT", 2))) == "DOUBLE*8 INT*2"
    assert render_signature(()) == "(empty)"
    long = tuple((f"T{i}", 1) for i in range(10))
    assert render_signature(long).endswith("...")


# -- transfer compatibility (the predicate behind SIG001 / SIG002) -----------

def _transfer(send_type, send_count, recv_type, recv_count):
    """(prefix rule holds, send bytes, receive capacity) of one pair."""
    send = TypedBuffer(np.zeros(64), send_type, send_count)
    recv = TypedBuffer(np.zeros(64), recv_type, recv_count)
    return (signature_prefix(send.signature(), recv.signature()),
            send.nbytes, recv.nbytes)


def test_check_transfer_clean():
    assert _transfer(Vector(4, 2, 8, DOUBLE), 1, DOUBLE, 8) == (True, 64, 64)


def test_check_transfer_type_mismatch_sig001():
    prefix_ok, _sent, _capacity = _transfer(Vector(4, 1, 8, DOUBLE), 1,
                                            INT, 8)
    assert not prefix_ok


def test_check_transfer_truncation_sig002():
    assert _transfer(DOUBLE, 10, DOUBLE, 4) == (False, 80, 32)


def test_report_dedup_and_render():
    report = Report()
    assert report.add("SIG001", "msg", key="k") is not None
    assert report.add("SIG001", "other msg", key="k") is None  # deduped
    assert len(report) == 1
    with pytest.raises(ValueError):
        report.add("NOPE99", "unknown rule")
    text = report.render()
    assert "SIG001" in text and "error" in text
