"""Engine.timeout cancellation paths and deadlock diagnosability.

Satellite coverage: the retransmit machinery leans on two properties of
timers -- (a) a timer whose operation completed first can be cancelled
without the original heap event double-resolving it, and (b) a fired
timer is inert to a later cancel.  Plus the diagnosable-deadlock payload
and the zero-elapsed utilization-report edge.
"""

import pytest

from repro.mpi import Cluster, MPIConfig
from repro.simtime.engine import (
    Engine,
    SimulationDeadlock,
    SimulationError,
)
from repro.util import CostModel


def test_timeout_fires_after_delay():
    eng = Engine()
    seen = []

    def proc():
        timer = eng.timeout(1.5)
        yield timer
        seen.append(eng.now)

    eng.spawn(proc(), "p")
    eng.run()
    assert seen == [1.5]


def test_timeout_cancelled_before_firing_resolves_immediately():
    eng = Engine()
    states = []

    def proc():
        timer = eng.timeout(100.0)
        assert timer.cancel() is True
        assert timer.cancelled and timer.done
        yield timer  # already resolved: resumes without waiting 100 s
        states.append(eng.now)

    eng.spawn(proc(), "p")
    eng.run()
    # the cancel resolved the wait at t=0; the stale heap entry at t=100
    # still pops but must be a no-op (the guarded timer checks done)
    assert states == [0.0]
    assert eng.now == 100.0  # heap entry drained, nothing resolved twice


def test_cancel_after_fire_is_a_noop():
    eng = Engine()

    def proc():
        timer = eng.timeout(1.0)
        yield timer
        assert timer.cancel() is False  # already fired
        assert not timer.cancelled

    eng.spawn(proc(), "p")
    eng.run()


def test_race_op_completes_before_timer():
    """The reliable-transport pattern: wait on (op, timer), cancel loser."""
    eng = Engine()
    order = []

    def proc():
        op = eng.future("op")
        eng.schedule(0.5, lambda: op.set_result("done"))
        timer = eng.timeout(10.0)
        winner = eng.future("winner")

        def on_first(fut):
            if not winner.done:
                winner.set_result(fut)

        op.add_done_callback(on_first)
        timer.add_done_callback(on_first)
        first = yield winner
        assert first is op
        order.append(eng.now)
        timer.cancel()

    eng.spawn(proc(), "p")
    eng.run()
    assert order == [0.5]
    assert eng.now == 10.0  # stale timer event drained without effect


def test_no_double_resolution_on_cancelled_timer():
    eng = Engine()

    def proc():
        timer = eng.timeout(1.0)
        timer.cancel()
        with pytest.raises(SimulationError):
            timer.set_result("again")
        yield timer

    eng.spawn(proc(), "p")
    eng.run()


def test_heap_drains_with_many_cancelled_timers():
    """Cancelled timers leave no live work behind -- the run terminates."""
    eng = Engine()

    def proc():
        for _ in range(100):
            timer = eng.timeout(5.0)
            timer.cancel()
            yield timer
        return "ok"

    p = eng.spawn(proc(), "p")
    eng.run()
    assert p.result == "ok"
    assert not eng.live_processes()


# -- deadlock diagnosability ------------------------------------------------


def test_deadlock_names_blocked_processes():
    eng = Engine()

    def waiter(name):
        fut = eng.future(f"never-{name}")
        yield fut

    eng.spawn(waiter("a"), "proc-a")
    eng.spawn(waiter("b"), "proc-b")
    with pytest.raises(SimulationDeadlock) as info:
        eng.run()
    exc = info.value
    assert len(exc.blocked) == 2
    names = {name for name, _ in exc.blocked}
    assert names == {"proc-a", "proc-b"}
    for _name, wait in exc.blocked:
        assert "never-" in wait
    assert "proc-a" in str(exc)


def test_deadlock_payload_through_mpi_layer():
    cluster = Cluster(2, config=MPIConfig.optimized())

    def main(comm):
        import numpy as np
        buf = np.zeros(1)
        yield from comm.recv(buf, source=1 - comm.rank)

    with pytest.raises(SimulationDeadlock) as info:
        cluster.run(main)
    blocked = info.value.blocked
    assert any(name == "rank0" for name, _ in blocked)
    assert any(name == "rank1" for name, _ in blocked)


def _deadlock(run):
    with pytest.raises(SimulationDeadlock) as info:
        run()
    return str(info.value), info.value.blocked


def test_stuck_recv_diagnostic_text_is_pinned():
    """Future names are formatted lazily; the text must not change."""
    import numpy as np
    cluster = Cluster(2, config=MPIConfig.optimized())

    def main(comm):
        if comm.rank == 1:
            yield from comm.recv(np.zeros(1), source=0, tag=7)

    text, blocked = _deadlock(lambda: cluster.run(main))
    assert text == ("1 process(es) blocked forever at t=0.0: "
                    "'rank1' waiting on future 'recv@1 tag=7'")
    assert blocked == [("rank1", "future 'recv@1 tag=7'")]


def test_stuck_rendezvous_send_diagnostic_text_is_pinned():
    import numpy as np
    cluster = Cluster(2, config=MPIConfig.optimized())

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4096), dest=1, tag=7)

    text, blocked = _deadlock(lambda: cluster.run(main))
    assert text == (
        "2 process(es) blocked forever at t=0.0: "
        "'rank0' waiting on future 'sent 0->1 tag=7'; "
        "'deliver 0->1' waiting on future 'match 0->1 tag=7'")
    assert blocked == [("rank0", "future 'sent 0->1 tag=7'"),
                       ("deliver 0->1", "future 'match 0->1 tag=7'")]


def test_stuck_obj_recv_and_probe_diagnostic_text_is_pinned():
    cluster = Cluster(2, config=MPIConfig.optimized())

    def main(comm):
        if comm.rank == 1:
            yield from comm.recv_obj(0, tag=3)
        else:
            yield from comm.probe(source=1, tag=2)

    _text, blocked = _deadlock(lambda: cluster.run(main))
    assert blocked == [("rank0", "future 'probe@0'"),
                       ("rank1", "future 'recv-obj@1 tag=3'")]


def test_stuck_port_acquire_diagnostic_text_is_pinned():
    from repro.simtime import Port
    eng = Engine()
    port = Port(eng, "send[0]")

    def hog():
        yield from port.acquire()
        yield eng.future("never")

    def waiter():
        yield from port.acquire()

    eng.spawn(hog(), "hog")
    eng.spawn(waiter(), "waiter")
    text, blocked = _deadlock(eng.run)
    assert text == ("2 process(es) blocked forever at t=0.0: "
                    "'hog' waiting on future 'never'; "
                    "'waiter' waiting on future 'acquire(send[0])'")
    assert blocked == [("hog", "future 'never'"),
                       ("waiter", "future 'acquire(send[0])'")]


def test_unnamed_future_and_join_diagnostics():
    eng = Engine()

    def waits():
        yield eng.future()

    def joins(proc):
        yield proc

    child = eng.spawn(waits(), "w")
    eng.spawn(joins(child), "j")
    _text, blocked = _deadlock(eng.run)
    assert blocked == [("w", "an unnamed future"), ("j", "process 'w'")]


def test_future_error_messages_name_the_future():
    eng = Engine()
    fut = eng.timeout(0.25)
    assert fut.name == "timeout(0.25)"
    with pytest.raises(SimulationError, match=r"future 'timeout\(0.25\)' not"):
        fut.value
    fut.set_result(1)
    with pytest.raises(SimulationError,
                       match=r"future 'timeout\(0.25\)' resolved twice"):
        fut.set_exception(KeyError())


def test_schedule_accepts_zero_arg_callables_and_arguments():
    """``schedule(delay, fn)`` (the injector, ``Engine.timeout``) and
    ``schedule(delay, fn, *args)`` both work and fire in schedule order."""
    eng = Engine()
    seen = []
    fut = eng.future("f")
    eng.schedule(1.0, lambda: seen.append("closure"))
    eng.schedule(1.0, seen.append, "args")
    eng.schedule(0.5, fut.set_result)
    eng.schedule(2.0, lambda a, b: seen.append((a, b, eng.now)), 1, 2)
    with pytest.raises(ValueError):
        eng.schedule(-1.0, seen.append, "never")
    eng.run()
    assert fut.done and fut.value is None
    assert seen == ["closure", "args", (1, 2, 2.0)]
    assert eng.events_fired == 4


# -- utilization report edge case -------------------------------------------


def test_utilization_report_zero_elapsed():
    """A run that never advances the clock reports 0.0 utilizations."""
    cluster = Cluster(2, config=MPIConfig.optimized(),
                      cost=CostModel(cpu_noise=0.0))

    def main(comm):
        return comm.rank
        yield  # pragma: no cover - makes this a generator

    cluster.run(main)
    assert cluster.elapsed == 0.0
    report = cluster.utilization_report()
    assert report["elapsed"] == 0.0
    assert report["max_send_link_utilization"] == 0.0
    assert report["max_recv_link_utilization"] == 0.0
