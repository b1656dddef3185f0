"""Self-consistent performance guidelines for the datatype compiler.

In the spirit of Hunold/Träff's self-consistent MPI performance guidelines,
each benchmark states an *internal consistency* requirement -- one the
library controls entirely, so a violation is a performance bug, not noise:

``pack-vs-manual``
    Packing (and unpacking) a derived datatype must not lose to the
    hand-rolled copy a programmer would write instead (the paper's central
    claim: derived datatypes should make manual packing unnecessary).
``vector-vs-indexed``
    A ``Vector`` must not lose to the equivalent ``Indexed`` spec of the
    same layout -- the more structured description can only help.
``contig-vs-vector``
    ``Contiguous(n*b)`` must not lose to ``Vector(n, b, b)`` describing the
    same contiguous bytes -- describing contiguity redundantly is free.

Each case times the *execution* of the compiled copy program (plans are
warmed first; compile time is reported separately by the
``repro_datatype_ir_compile_seconds`` histogram) against its reference
implementation, best-of-``repeats``.  A case fails when::

    t_derived > tolerance * t_reference + slack

with a generous default tolerance, because these are wall-clock numbers on
shared CI machines; the margin the compiler buys on violation-prone
cases is an order of magnitude, not percents.  CI proves the gate can
trip by editing a checkout so that no loop nest lowers to one strided op
(``Loop.nest`` always None) and asserting exit 1 -- the benchmarks
measure the compiler, not the weather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.bench.harness import FigureData
from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import (
    Contiguous,
    DOUBLE,
    Indexed,
    Resized,
    Vector,
)

__all__ = ["GuidelineCase", "guideline_cases", "run_guidelines"]

#: derived may cost up to this multiple of the reference before failing
DEFAULT_TOLERANCE = 1.5
#: absolute slack (seconds) so sub-microsecond references don't flap
DEFAULT_SLACK = 50e-6


@dataclass
class GuidelineCase:
    """One self-checking benchmark: a derived-datatype op vs a reference."""

    guideline: str
    case: str
    derived: Callable[[], np.ndarray]
    reference: Callable[[], np.ndarray]


def _best_of(fn: Callable[[], np.ndarray], repeats: int,
             timer: Callable[[], float]) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = timer()
        fn()
        best = min(best, timer() - t0)
    return best


def _manual_indexed_pack(bts: np.ndarray, offs, lens, total: int):
    """The hand-rolled pack loop a programmer writes instead of Indexed."""

    def run() -> np.ndarray:
        out = np.empty(total, dtype=np.uint8)
        pos = 0
        for o, n in zip(offs, lens):
            out[pos:pos + n] = bts[o:o + n]
            pos += n
        return out

    return run


def guideline_cases(scale: int = 512) -> List[GuidelineCase]:
    """The benchmark catalogue; ``scale`` is the matrix edge (elements)."""
    n = scale
    rng = np.random.default_rng(12345)
    matrix = rng.random((n, n))  # n*n float64, row-major
    mbytes = matrix.reshape(-1).view(np.uint8)
    cases: List[GuidelineCase] = []

    # -- guideline 1: pack <= manual copy ----------------------------------
    column = TypedBuffer(matrix, Vector(n, 1, n, DOUBLE))
    cases.append(GuidelineCase(
        "pack-vs-manual", f"matrix column ({n}x{n} doubles)",
        derived=column.pack,
        reference=lambda: np.ascontiguousarray(matrix[:, 0]),
    ))

    half = n // 2
    rows_block = TypedBuffer(matrix, Vector(n, half, n, DOUBLE))
    cases.append(GuidelineCase(
        "pack-vs-manual", f"left half-rows ({n}x{half} doubles)",
        derived=rows_block.pack,
        reference=lambda: np.ascontiguousarray(matrix[:, :half]),
    ))

    # irregular gather: every third 2-element run, packed via Indexed vs
    # the per-block python loop a hand-tuned application would use
    disps = np.arange(0, n * n - 2, 3 * n)
    idx_type = Indexed([2] * len(disps), disps.tolist(), DOUBLE)
    idx_tb = TypedBuffer(matrix, idx_type)
    bl = idx_tb.blocks
    cases.append(GuidelineCase(
        "pack-vs-manual", f"indexed runs ({len(disps)} blocks)",
        derived=idx_tb.pack,
        reference=_manual_indexed_pack(
            mbytes, bl.offsets.tolist(), bl.lengths.tolist(), bl.size),
    ))

    # a long thin stride, sized so the slack cannot hide a kernel that moves
    # bytes where numpy moves words (not `scale`d: --quick is as strict)
    m = 100_000
    wide = rng.random(4 * m)
    thin = TypedBuffer(wide, Vector(m, 1, 4, DOUBLE))
    cases.append(GuidelineCase(
        "pack-vs-manual", f"stride-4 vector ({m} doubles)",
        derived=thin.pack,
        reference=lambda: np.ascontiguousarray(wide[::4]),
    ))
    packed = thin.pack()
    sliced = np.zeros_like(wide)
    typed = TypedBuffer(np.zeros_like(wide), thin.datatype)

    def unpack_typed() -> np.ndarray:
        typed.unpack(packed)
        return typed.buffer

    def unpack_sliced() -> np.ndarray:
        sliced[::4] = packed.view(np.float64)
        return sliced

    cases.append(GuidelineCase(
        "pack-vs-manual", f"stride-4 vector unpack ({m} doubles)",
        derived=unpack_typed, reference=unpack_sliced,
    ))

    # the Fig. 12 transpose type: one loop nest over one 8-byte run
    transpose = Contiguous(n, Resized(Vector(n, 1, n, DOUBLE), DOUBLE.extent))
    flipped = TypedBuffer(matrix, transpose)
    cases.append(GuidelineCase(
        "pack-vs-manual", f"transpose ({n}x{n} doubles)",
        derived=flipped.pack,
        reference=lambda: np.ascontiguousarray(matrix.T),
    ))
    flat = flipped.pack()
    rows = flat.view(np.float64).reshape(n, n)
    typed_t = TypedBuffer(np.zeros_like(matrix), transpose)
    manual_t = np.zeros_like(matrix)

    def unpack_transpose_typed() -> np.ndarray:
        typed_t.unpack(flat)
        return typed_t.buffer

    def unpack_transpose_manual() -> np.ndarray:
        manual_t.T[...] = rows
        return manual_t

    cases.append(GuidelineCase(
        "pack-vs-manual", f"transpose unpack ({n}x{n} doubles)",
        derived=unpack_transpose_typed, reference=unpack_transpose_manual,
    ))

    # -- guideline 2: Vector <= equivalent Indexed -------------------------
    vec_tb = TypedBuffer(matrix, Vector(n, 2, n, DOUBLE))
    eq_idx = Indexed([2] * n, (np.arange(n) * n).tolist(), DOUBLE)
    eq_tb = TypedBuffer(matrix, eq_idx)
    cases.append(GuidelineCase(
        "vector-vs-indexed", f"2-wide column pair ({n} rows)",
        derived=vec_tb.pack,
        reference=eq_tb.pack,
    ))

    # -- guideline 3: Contiguous <= Vector(blocklen=stride) ----------------
    contig_tb = TypedBuffer(matrix, Contiguous(n * n, DOUBLE))
    dense_vec_tb = TypedBuffer(matrix, Vector(n, n, n, DOUBLE))
    cases.append(GuidelineCase(
        "contig-vs-vector", f"{n * n} doubles",
        derived=contig_tb.pack,
        reference=dense_vec_tb.pack,
    ))
    return cases


def run_guidelines(
    scale: int = 512,
    repeats: int = 7,
    tolerance: float = DEFAULT_TOLERANCE,
    slack: float = DEFAULT_SLACK,
    timer: Optional[Callable[[], float]] = None,
    cases: Optional[List[GuidelineCase]] = None,
) -> Tuple[FigureData, List[str]]:
    """Run the suite; returns the figure and the list of violations.

    ``timer`` is injectable for deterministic tests of the gate logic.
    """
    timer = timer or time.perf_counter
    if cases is None:
        cases = guideline_cases(scale)
    fig = FigureData(
        name="guidelines",
        title="datatype performance guidelines (derived vs reference, "
              f"best of {repeats})",
        columns=["guideline", "case", "derived_us", "reference_us",
                 "ratio", "limit", "ok"],
    )
    fig.notes.append(
        f"gate: derived <= {tolerance:g} * reference + {slack * 1e6:.0f}us")
    violations: List[str] = []
    for case in cases:
        got = case.derived()
        want = case.reference()
        if not np.array_equal(np.asarray(got).reshape(-1).view(np.uint8),
                              np.asarray(want).reshape(-1).view(np.uint8)):
            violations.append(
                f"{case.guideline}/{case.case}: derived and reference moved "
                "DIFFERENT bytes")
            continue
        t_derived = _best_of(case.derived, repeats, timer)
        t_ref = _best_of(case.reference, repeats, timer)
        limit = tolerance * t_ref + slack
        ok = t_derived <= limit
        ratio = t_derived / t_ref if t_ref > 0 else float("inf")
        fig.add_row(case.guideline, case.case, t_derived * 1e6, t_ref * 1e6,
                    ratio, limit * 1e6, "yes" if ok else "NO")
        if not ok:
            violations.append(
                f"{case.guideline}/{case.case}: derived {t_derived * 1e6:.1f}us "
                f"> limit {limit * 1e6:.1f}us "
                f"(reference {t_ref * 1e6:.1f}us, ratio {ratio:.2f})")
    return fig, violations
