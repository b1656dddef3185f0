"""Static datatype-signature analysis (the verdict behind SIG001/SIG002).

MPI's correctness contract for typed messaging (MPI-3.0 section 3.3.1) is
stated in terms of *type signatures*: the ordered sequence of primitive
types in the flattened typemap, ignoring displacements.  A send matches a
receive iff the send signature is a prefix of the receive signature; a
longer send is a truncation error.

>>> from repro.datatypes import Vector, DOUBLE, INT
>>> transfer_verdict(Vector(4, 1, 8, DOUBLE), 1, INT, 8).ok
False
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import repro.datatypes as _datatypes
from repro.datatypes.typemap import Datatype, TypeSignature, _rle_repeat

#: the ``repro.datatypes`` names a static evaluator resolves: the
#: constructors it may call and the primitive types
DATATYPE_NAMES: Dict[str, Any] = {
    n: getattr(_datatypes, n)
    for n in ("Vector", "HVector", "Contiguous", "Indexed", "HIndexed",
              "Struct", "DOUBLE", "FLOAT", "INT", "CHAR", "BYTE", "LONG")
}

#: constant datatypes with more blocks than this are not built
MAX_STATIC_BLOCKS = 100_000


def construct_datatype(name: str, args: List[Any],
                       kwargs: Dict[str, Any]) -> Optional[Datatype]:
    """``name(*args, **kwargs)`` for a :data:`DATATYPE_NAMES` constructor
    over statically evaluated arguments; None when ``name`` is not a
    constructor, the type would exceed :data:`MAX_STATIC_BLOCKS`, or the
    constructor rejects the arguments."""
    ctor = DATATYPE_NAMES.get(name)
    if not callable(ctor):
        return None
    blocks = 1
    if name in ("Vector", "HVector", "Contiguous") and args \
            and isinstance(args[0], (int, float)):
        blocks = int(args[0])
    elif name in ("Indexed", "HIndexed") and args \
            and isinstance(args[0], list):
        blocks = len(args[0])
    if blocks > MAX_STATIC_BLOCKS:
        return None
    try:
        return ctor(*args, **kwargs)
    except Exception:  # bad constant arguments: not our finding
        return None


def full_signature(datatype: Datatype, count: int = 1) -> TypeSignature:
    """The signature of ``count`` back-to-back copies of ``datatype``."""
    return _rle_repeat(datatype.typemap_signature(), count)


def _is_summarised(sig: TypeSignature) -> bool:
    return any(name == "..." for name, _c in sig)


def signature_prefix(send: TypeSignature, recv: TypeSignature) -> bool:
    """True iff ``send`` is a (possibly complete) prefix of ``recv``.

    Run-length-encoded two-pointer walk; no expansion.  Summarised
    signatures (containing a ``"..."`` run) compare by total element count
    only -- the best that can be said about a capped signature.
    """
    if _is_summarised(send) or _is_summarised(recv):
        return sum(c for _n, c in send) <= sum(c for _n, c in recv)
    i = j = 0
    need = 0  # remaining elements of send run i
    have = 0  # remaining elements of recv run j
    while True:
        if need == 0:
            if i == len(send):
                return True  # send exhausted: prefix holds
            need = send[i][1]
        if have == 0:
            if j == len(recv):
                return False  # recv exhausted first: send is longer
            have = recv[j][1]
        if send[i][0] != recv[j][0]:
            return False
        step = min(need, have)
        need -= step
        have -= step
        if need == 0:
            i += 1
        if have == 0:
            j += 1


def render_signature(sig: TypeSignature, limit: int = 6) -> str:
    """Compact human-readable form, e.g. ``DOUBLE*8 INT*2 ...``."""
    parts = [f"{name}*{count}" for name, count in sig[:limit]]
    if len(sig) > limit:
        parts.append("...")
    return " ".join(parts) or "(empty)"


@dataclass(frozen=True)
class TransferVerdict:
    """The complete static verdict on one send/receive endpoint pair.

    The cross-rank protocol verifier's MTC105 (per matched edge) consumes
    it; the :class:`~repro.analyze.runtime.RuntimeVerifier`'s SIG001 (per
    delivered message) applies the same :func:`signature_prefix`, so the
    symbolic and concrete paths cannot drift.
    """

    send_sig: TypeSignature
    recv_sig: TypeSignature
    send_bytes: int
    recv_bytes: int
    prefix_ok: bool

    @property
    def truncates(self) -> bool:
        return self.send_bytes > self.recv_bytes

    @property
    def ok(self) -> bool:
        return self.prefix_ok and not self.truncates


def transfer_verdict(
    send_type: Datatype,
    send_count: int,
    recv_type: Datatype,
    recv_count: int,
) -> TransferVerdict:
    """Evaluate MPI-3.0 section 3.3.1 for one send/receive pair: the send
    signature must be a prefix of the receive signature, and the send's
    data volume must fit the receive's capacity."""
    send_sig = full_signature(send_type, send_count)
    recv_sig = full_signature(recv_type, recv_count)
    return TransferVerdict(
        send_sig=send_sig,
        recv_sig=recv_sig,
        send_bytes=send_type.size * send_count,
        recv_bytes=recv_type.size * recv_count,
        prefix_ok=signature_prefix(send_sig, recv_sig),
    )
