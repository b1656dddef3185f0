"""Datatype-signature matching (the predicate behind SIG001/SIG002).

MPI's correctness contract for typed messaging (MPI-3.0 section 3.3.1) is
stated in terms of *type signatures*: the ordered sequence of primitive
types in the flattened typemap, ignoring displacements.  A send matches a
receive iff the send signature is a prefix of the receive signature; a
longer send is a truncation error.  The
:class:`~repro.analyze.runtime.RuntimeVerifier` applies
:func:`signature_prefix` to every delivered message.

>>> from repro.datatypes import Vector, DOUBLE, INT
>>> signature_prefix(Vector(4, 1, 8, DOUBLE).typemap_signature(),
...                  INT.typemap_signature())
False
"""

from __future__ import annotations

from repro.datatypes.typemap import TypeSignature


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
