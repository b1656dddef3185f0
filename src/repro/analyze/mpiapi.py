"""What the analyzer knows about the ``repro.mpi`` API, read off the code.

Every pass that recognises a communication call by its method name (the
lint, the dataflow passes, the call summaries) consults this one module,
and every fact the library can state itself is derived from it, so the
analyzer cannot drift from the code it checks:

- generator methods (driven with ``yield from``):
  :func:`inspect.isgeneratorfunction` over the public methods of
  :class:`~repro.mpi.comm.Comm`, :class:`~repro.mpi.request.Request` and
  :class:`~repro.petsc.dmda.DMDA`;
- point-to-point methods: a ``dest`` or ``source`` parameter, which also
  makes a request they create a send or a receive;
- plain-call request creators: annotated ``-> Request``;
- ``Request`` methods completing their receiver versus a list of
  requests: instance versus static methods;
- parameter names: :func:`inspect.signature`;
- the algorithm implementations only the registry may dispatch:
  :data:`repro.mpi.algorithms.REGISTRY`.

The few facts only a person can state are written once, below.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet

from repro.mpi.algorithms import REGISTRY
from repro.mpi.comm import Comm
from repro.mpi.request import Request
from repro.petsc.dmda import DMDA


def _public_methods(cls: type) -> Dict[str, Callable]:
    return {name: fn
            for name, fn in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")}


def _generators(cls: type) -> FrozenSet[str]:
    return frozenset(name for name, fn in _public_methods(cls).items()
                     if inspect.isgeneratorfunction(fn))


_COMM = _public_methods(Comm)
_COMM_GENERATORS = _generators(Comm)

# -- facts only a person can state --------------------------------------------

#: ``Comm`` generators that only charge local CPU time
LOCAL_METHODS = frozenset({"cpu"})

#: ``Comm`` generators that build a new communicator or agree over the
#: survivors instead of exchanging data.  None of them counts as a
#: collective: calling ``split`` with rank-dependent colors under
#: rank-dependent control flow is its intended use.
GROUP_METHODS = frozenset({"split", "shrink", "agree"})

#: ``Comm`` generators that post a send and hand back its request
#: (``req = yield from comm.isend(..)``)
NONBLOCKING_GENERATORS = frozenset({"isend"})

# -- facts read off the code --------------------------------------------------

#: every method returning a generator that must be driven with
#: ``yield from`` -- a bare ``comm.send(x, 1)`` statement sends nothing
GENERATOR_METHODS = (_COMM_GENERATORS | _generators(Request)
                     | _generators(DMDA))

#: ``Comm`` method -> its parameter names, in call-site order
COMM_PARAMS = {name: list(inspect.signature(fn).parameters)[1:]
               for name, fn in _COMM.items()}

#: ``Comm`` methods that address one peer (``dest`` / ``source``)
POINT_TO_POINT = frozenset(name for name, params in COMM_PARAMS.items()
                           if {"dest", "source"} & set(params))

#: collective operations on a communicator
COLLECTIVE_METHODS = (_COMM_GENERATORS - POINT_TO_POINT - LOCAL_METHODS
                      - GROUP_METHODS)

#: every request-completing method name
WAIT_METHODS = frozenset(_public_methods(Request))

#: ``Request`` methods completing the request they are called on
#: (``req.wait()`` / ``req.test()``)
COMPLETES_RECEIVER = frozenset(
    name for name in WAIT_METHODS
    if not isinstance(inspect.getattr_static(Request, name), staticmethod))

#: ``Request`` methods completing the requests passed to them
#: (``Request.waitall(reqs)``)
COMPLETES_ARGUMENTS = WAIT_METHODS - COMPLETES_RECEIVER

#: operations that block the calling rank until a peer acts
BLOCKING_METHODS = ((POINT_TO_POINT & _COMM_GENERATORS)
                    - NONBLOCKING_GENERATORS) | _generators(Request)


def _request_kind(name: str) -> str:
    return "recv" if "source" in COMM_PARAMS[name] else "send"


#: request creators driven with ``yield from`` -> request kind
WRAPPED_REQUEST_METHODS = {name: _request_kind(name)
                           for name in NONBLOCKING_GENERATORS}

#: request creators called plainly (``req = comm.irecv(..)``) -> kind
DIRECT_REQUEST_METHODS = {
    name: _request_kind(name) for name, fn in _COMM.items()
    if inspect.signature(fn).return_annotation in ("Request", Request)}

#: the concrete algorithm implementations behind the registry
ALGORITHM_IMPLEMENTATIONS = frozenset(
    REGISTRY.implementation(collective, name).__name__
    for collective in REGISTRY.collectives()
    for name in REGISTRY.names(collective))
