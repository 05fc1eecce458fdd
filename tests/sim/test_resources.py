"""Unit tests for resources: semaphore, FIFO channel, fair-share link."""

import pytest

from repro.sim import FairShareLink, FifoChannel, Mailbox, Resource, SimulationError, Simulator


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    sim.run()
    assert r1.processed and r2.processed
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queued == 1


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, name, hold):
        yield res.request()
        order.append(("got", name, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 1.0))
    sim.process(user(sim, "c", 1.0))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 2.0), ("got", "c", 3.0)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_acquire_helper():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        yield from res.acquire()
        yield sim.timeout(1.0)
        res.release()
        return sim.now

    assert sim.run_process(user(sim)) == 1.0


# ---------------------------------------------------------------------------
# FifoChannel
# ---------------------------------------------------------------------------

def test_fifo_single_transfer_time():
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=100.0, latency=0.5)
    ev = ch.transfer(200.0)  # 2s service + 0.5 latency

    def proc(sim):
        yield ev
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(2.5)


def test_fifo_serializes_back_to_back():
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=100.0, latency=0.0)
    done = []

    def proc(sim):
        e1 = ch.transfer(100.0)
        e2 = ch.transfer(100.0)
        yield e1
        done.append(sim.now)
        yield e2
        done.append(sim.now)

    sim.run_process(proc(sim))
    assert done == [pytest.approx(1.0), pytest.approx(2.0)]


def test_fifo_latency_pipelined():
    """Latency applies once per message, overlapping with the next service."""
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=100.0, latency=10.0)

    def proc(sim):
        e1 = ch.transfer(100.0)  # done at 1 + 10 = 11
        e2 = ch.transfer(100.0)  # service 1..2, done at 2 + 10 = 12
        yield e1
        t1 = sim.now
        yield e2
        return (t1, sim.now)

    t1, t2 = sim.run_process(proc(sim))
    assert t1 == pytest.approx(11.0)
    assert t2 == pytest.approx(12.0)


def test_fifo_zero_bytes_costs_latency_only():
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=100.0, latency=0.25)

    def proc(sim):
        yield ch.transfer(0.0)
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(0.25)


def test_fifo_stats():
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=100.0)
    ch.transfer(50.0)
    ch.transfer(150.0)
    sim.run()
    assert ch.bytes_sent == 200.0
    assert ch.messages_sent == 2


def test_fifo_negative_size_raises():
    sim = Simulator()
    ch = FifoChannel(sim, bandwidth=1.0)
    with pytest.raises(ValueError):
        ch.transfer(-1.0)


def test_fifo_invalid_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoChannel(sim, bandwidth=0.0)
    with pytest.raises(ValueError):
        FifoChannel(sim, bandwidth=1.0, latency=-1.0)


# ---------------------------------------------------------------------------
# FairShareLink
# ---------------------------------------------------------------------------

def test_fairshare_single_flow_full_bandwidth():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0, latency=0.0)

    def proc(sim):
        yield link.transfer(300.0)
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(3.0)


def test_fairshare_two_equal_flows_halve_rate():
    """Two simultaneous equal flows each take 2x the solo time."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)

    def proc(sim):
        e1 = link.transfer(100.0)
        e2 = link.transfer(100.0)
        yield sim.all_of([e1, e2])
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(2.0)


def test_fairshare_short_flow_finishes_then_rate_recovers():
    """100B + 300B started together on B=100: share until the short one
    drains at t=2 (each got 100B), then the long one finishes its remaining
    200B at full rate by t=4."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    times = {}

    def proc(sim):
        e_short = link.transfer(100.0, value="short")
        e_long = link.transfer(300.0, value="long")

        def mark(ev):
            times[ev.value] = sim.now

        e_short.add_callback(mark)
        e_long.add_callback(mark)
        yield sim.all_of([e_short, e_long])

    sim.run_process(proc(sim))
    assert times["short"] == pytest.approx(2.0)
    assert times["long"] == pytest.approx(4.0)


def test_fairshare_late_arrival_slows_existing_flow():
    """Flow A (200B) alone for 1s (100B done), then B (100B) arrives:
    both at 50 B/s.  B's 100B takes 2s -> t=3; A's remaining 100B also
    drains at t=3."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    times = {}

    def starter(sim):
        ea = link.transfer(200.0, value="a")
        ea.add_callback(lambda ev: times.__setitem__("a", sim.now))
        yield sim.timeout(1.0)
        eb = link.transfer(100.0, value="b")
        eb.add_callback(lambda ev: times.__setitem__("b", sim.now))
        yield sim.all_of([ea, eb])

    sim.run_process(starter(sim))
    assert times["a"] == pytest.approx(3.0)
    assert times["b"] == pytest.approx(3.0)


def test_fairshare_latency_added_after_drain():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0, latency=0.5)

    def proc(sim):
        yield link.transfer(100.0)
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(1.5)


def test_fairshare_zero_bytes():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0, latency=0.25)

    def proc(sim):
        yield link.transfer(0.0)
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(0.25)


def test_fairshare_conservation_of_bytes():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=64.0)
    sizes = [10.0, 250.0, 3.0, 77.0]

    def proc(sim):
        evs = []
        for i, s in enumerate(sizes):
            evs.append(link.transfer(s))
            yield sim.timeout(0.1 * i)
        yield sim.all_of(evs)
        return sim.now

    end = sim.run_process(proc(sim))
    assert link.bytes_sent == pytest.approx(sum(sizes))
    # Total time bounded below by aggregate bytes / bandwidth.
    assert end >= sum(sizes) / 64.0 - 1e-9


def _count_events(sim):
    steps = 0
    while sim.peek() != float("inf"):
        sim.step()
        steps += 1
    return steps


def test_fairshare_burst_times_unchanged_with_fewer_events():
    """Arrivals at one timestamp share one reschedule.  Completion times
    are pinned float for float (``==``) to the values of the
    one-reschedule-per-arrival model, and the run must not process more
    than that model's 30 events."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=64.0, latency=0.5)
    done = {}

    def burst(at, sizes):
        def go(_ev):
            for i, n in enumerate(sizes):
                link.transfer(n).add_callback(
                    lambda _e, tag=(at, i): done.__setitem__(tag, sim.now))
        sim.timeout(at).add_callback(go)

    burst(0.0, [64.0, 128.0, 128.0, 256.0, 40.0])
    burst(1.0, [32.0, 32.0, 96.0])
    burst(2.5, [64.0])
    burst(30.0, [10.0])
    assert _count_events(sim) <= 30
    assert done == {
        (0.0, 0): 7.5375, (0.0, 1): 11.625, (0.0, 2): 11.625,
        (0.0, 3): 13.625, (0.0, 4): 5.137499999999999,
        (1.0, 0): 5.7375, (1.0, 1): 5.7375, (1.0, 2): 10.725,
        (2.5, 0): 9.475, (30.0, 0): 30.65625,
    }


@pytest.mark.parametrize("k", [1, 3, 8, 32])
def test_fairshare_burst_of_k_costs_three_link_events(k):
    """One put arms one timer; a burst of k >= 3 puts costs the first
    arrival's timer, one deferred reschedule and one live timer — plus the
    k completions either way."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=64.0, latency=0.5)
    evs = [link.transfer(16.0) for _ in range(k)]
    assert _count_events(sim) == k + (1 if k == 1 else 3)
    assert all(ev.processed for ev in evs)
    assert sim.now == 16.0 * k / 64.0 + 0.5


def test_fairshare_active_flow_count():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)

    def proc(sim):
        link.transfer(1000.0)
        link.transfer(1000.0)
        yield sim.timeout(0.0)
        return link.active_flows

    assert sim.run_process(proc(sim)) == 2


# ---------------------------------------------------------------------------
# Mailbox
# ---------------------------------------------------------------------------

def test_mailbox_put_then_get():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("x")

    def proc(sim):
        item = yield box.get()
        return item

    assert sim.run_process(proc(sim)) == "x"


def test_mailbox_get_blocks_until_put():
    sim = Simulator()
    box = Mailbox(sim)

    def getter(sim):
        item = yield box.get()
        return (sim.now, item)

    def putter(sim):
        yield sim.timeout(2.0)
        box.put("late")

    g = sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert g.value == (2.0, "late")


def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    for i in range(5):
        box.put(i)
    out = []

    def proc(sim):
        for _ in range(5):
            out.append((yield box.get()))

    sim.run_process(proc(sim))
    assert out == [0, 1, 2, 3, 4]
    assert len(box) == 0
