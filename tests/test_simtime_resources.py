"""Unit tests for resources and ports."""

import pytest

from repro.simtime import Delay, Engine, NetworkModel, Resource
from repro.simtime.engine import SimulationError
from repro.util import CostModel


def test_resource_serialises_single_capacity():
    eng = Engine()
    res = Resource(eng)
    log = []

    def proc(name):
        yield from res.use(1.0)
        log.append((eng.now, name))

    eng.spawn(proc("a"))
    eng.spawn(proc("b"))
    eng.spawn(proc("c"))
    eng.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng)
    order = []

    def proc(name, start_delay):
        yield Delay(start_delay)
        yield from res.use(10.0)
        order.append(name)

    eng.spawn(proc("late", 2.0))
    eng.spawn(proc("early", 1.0))
    eng.spawn(proc("first", 0.0))
    eng.run()
    assert order == ["first", "early", "late"]


def test_release_idle_resource_is_error():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(SimulationError):
        res.release()


def test_port_tracks_busy_time():
    """``NetworkModel.transfer`` holds the sender's send port and the
    receiver's receive port for the wire time and books it as their busy
    time; the gap between two transfers is not."""
    eng = Engine()
    cost = CostModel()
    net = NetworkModel(eng, 2, cost=cost)

    def proc():
        yield from net.transfer(0, 1, 1000)
        yield Delay(3.0)
        yield from net.transfer(0, 1, 10)

    eng.spawn(proc())
    eng.run()
    wire = cost.transfer_time(1000) + cost.transfer_time(10)
    assert net.send_ports[0].busy_time == pytest.approx(wire)
    assert net.recv_ports[1].busy_time == pytest.approx(wire)
    assert net.send_ports[1].busy_time == net.recv_ports[0].busy_time == 0.0
    assert eng.now == pytest.approx(3.0 + wire)


def test_resource_released_on_exception_in_use():
    eng = Engine()
    res = Resource(eng)

    def bad():
        with pytest.raises(SimulationError):
            yield from _use_then_raise(res)
        # resource must be free again
        yield from res.use(1.0)
        return "ok"

    def _use_then_raise(res):
        yield from res.acquire()
        try:
            raise SimulationError("fail inside")
        finally:
            res.release()

    p = eng.spawn(bad())
    eng.run()
    assert p.result == "ok"
