"""Unit tests for the discrete-event simulation kernel."""

import random
from collections import Counter

import pytest

from repro.core import BabolController, ControllerConfig
from repro.obs import Tracer
from repro.sim import (
    Condition,
    Mutex,
    Queue,
    SimError,
    Simulator,
    Timeout,
    Trigger,
    WaitProcess,
    WaitTrigger,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30, lambda: log.append(("b", sim.now)))
    sim.schedule(10, lambda: log.append(("a", sim.now)))
    sim.schedule(20, lambda: log.append(("m", sim.now)))
    sim.run()
    assert log == [("a", 10), ("m", 20), ("b", 30)]


def test_same_time_events_fifo_by_schedule_order():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule(5, lambda t=tag: log.append(t))
    sim.run()
    assert log == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_cancelled_event_does_not_run():
    sim = Simulator()
    log = []
    event = sim.schedule(10, lambda: log.append("x"))
    event.cancel()
    sim.run()
    assert log == []


def test_run_until_stops_the_clock():
    sim = Simulator()
    log = []
    sim.schedule(100, lambda: log.append("late"))
    sim.run(until=50)
    assert sim.now == 50
    assert log == []
    sim.run()
    assert log == ["late"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    log = []
    sim.schedule_at(42, lambda: log.append(sim.now))
    sim.run()
    assert log == [42]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(5, lambda: None)


def test_process_timeout_advances_clock():
    sim = Simulator()

    def worker():
        yield Timeout(7)
        yield Timeout(3)
        return sim.now

    assert sim.run_process(worker()) == 10


def test_process_bare_int_is_timeout():
    sim = Simulator()

    def worker():
        yield 25
        return sim.now

    assert sim.run_process(worker()) == 25


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield Timeout(5)
        return "done"

    def parent():
        proc = sim.spawn(child())
        value = yield from proc.join()
        return value, sim.now

    assert sim.run_process(parent()) == ("done", 5)


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        return 11
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child())
        yield Timeout(50)
        value = yield from proc.join()
        return value

    assert sim.run_process(parent()) == 11


def test_argument_events_run_and_trace_like_closure_events():
    def run(schedule_all):
        sim = Simulator()
        tracer = Tracer(categories={"kernel"})
        sim.set_tracer(tracer)
        got = []
        schedule_all(sim, got.append)
        sim.run()
        return got, [(e.track, e.name, e.ts, e.args) for e in tracer.events]

    closures = run(lambda sim, fn: [sim.schedule(0, lambda: fn("a")),
                                    sim.schedule(1, lambda: fn(None)),
                                    sim.schedule(5, lambda: fn("b")).cancel(),
                                    sim.schedule(7, lambda: fn("c"))])
    with_args = run(lambda sim, fn: [sim.schedule(0, fn, "a"),
                                     sim.schedule(1, fn, None),
                                     sim.schedule(5, fn, "b").cancel(),
                                     sim.schedule(7, fn, "c")])
    assert closures == with_args
    # A None argument is passed, not taken for "no argument".
    assert closures[0] == ["a", None, "c"] and len(closures[1]) == 8


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield Timeout(1)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_unsupported_yield_raises():
    sim = Simulator()

    def weird():
        yield "nonsense"

    sim.spawn(weird())
    with pytest.raises(SimError):
        sim.run()


def test_trigger_resumes_all_waiters():
    sim = Simulator()
    trigger = Trigger(sim)
    results = []

    def waiter(tag):
        value = yield from trigger.wait()
        results.append((tag, value, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(15, lambda: trigger.fire("go"))
    sim.run()
    assert sorted(results) == [("a", "go", 15), ("b", "go", 15)]
    assert trigger.fire_count == 1


def test_trigger_does_not_resume_late_waiters():
    sim = Simulator()
    trigger = Trigger(sim)
    log = []

    def late():
        yield Timeout(20)
        value = yield from trigger.wait()
        log.append(value)

    sim.spawn(late())
    sim.schedule(5, lambda: trigger.fire("early"))
    sim.schedule(30, lambda: trigger.fire("second"))
    sim.run()
    assert log == ["second"]


def test_mutex_is_fifo_fair():
    sim = Simulator()
    mutex = Mutex(sim)
    order = []

    def contender(tag, arrive, hold):
        yield Timeout(arrive)
        yield from mutex.acquire(owner=tag)
        order.append((tag, sim.now))
        yield Timeout(hold)
        mutex.release()

    sim.spawn(contender("first", 0, 100))
    sim.spawn(contender("second", 10, 10))
    sim.spawn(contender("third", 20, 10))
    sim.run()
    assert order == [("first", 0), ("second", 100), ("third", 110)]


def test_mutex_release_unlocked_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        Mutex(sim).release()


def test_queue_get_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)
    got = []

    def consumer():
        item = yield from queue.get()
        got.append((item, sim.now))

    sim.spawn(consumer())
    sim.schedule(40, lambda: queue.put("payload"))
    sim.run()
    assert got == [("payload", 40)]


def test_queue_preserves_fifo_and_try_get():
    sim = Simulator()
    queue = Queue(sim)
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
    assert queue.try_get() == 1
    assert queue.try_get() == 2
    assert queue.try_get() is None


def test_queue_remove_specific_item():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("a")
    queue.put("b")
    assert queue.remove("a") is True
    assert queue.remove("zzz") is False
    assert queue.peek_all() == ("b",)


def test_condition_wait_for_predicate():
    sim = Simulator()
    cond = Condition(sim)
    state = {"ready": False}
    log = []

    def waiter():
        yield from cond.wait_for(lambda: state["ready"])
        log.append(sim.now)

    def setter():
        yield Timeout(10)
        cond.notify()  # spurious: predicate still false
        yield Timeout(10)
        state["ready"] = True
        cond.notify()

    sim.spawn(waiter())
    sim.spawn(setter())
    sim.run()
    assert log == [20]


def test_run_process_unfinished_raises():
    sim = Simulator()

    def forever():
        trigger = Trigger(sim)
        yield from trigger.wait()

    with pytest.raises(SimError):
        sim.run_process(forever())


def test_nested_yield_from_composition():
    sim = Simulator()

    def inner():
        yield Timeout(5)
        return 2

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b, sim.now

    assert sim.run_process(outer()) == (4, 10)


# --- differential check against a reference scheduler ------------------------

_DELAYS = (0, 0, 0, 1, 5, 5, 10)


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time, self.seq, self.fn, self.args = time, seq, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _RefSim:
    """Reference scheduler: one flat list; each step runs the event with
    the smallest ``(time, seq)``, where ``seq`` counts every schedule."""

    def __init__(self):
        self.now, self.seq, self.events = 0, 0, []

    def schedule(self, delay, fn, *args):
        self.seq += 1
        event = _RefEvent(self.now + delay, self.seq, fn, args)
        self.events.append(event)
        return event

    def spawn(self, gen):
        return _RefProcess(self, gen)

    @property
    def pending_events(self):
        return sum(not event.cancelled for event in self.events)

    def run(self, until=None):
        while self.events:
            event = min(self.events, key=lambda e: (e.time, e.seq))
            if until is not None and event.time > until:
                break
            self.events.remove(event)
            if not event.cancelled:
                self.now = event.time
                event.fn(*event.args)
        if until is not None and self.now < until:
            self.now = until


class _RefProcess:
    def __init__(self, sim, gen):
        self.sim, self.gen, self.waiters = sim, gen, []
        self.finished, self.value = False, None
        sim.schedule(0, self.step, None)

    def step(self, value):
        if self.finished:
            return
        try:
            command = self.gen.send(value)
        except StopIteration as stop:
            self.finished, self.value = True, stop.value
            waiters, self.waiters = self.waiters, []
            for waiter in waiters:  # joiners resume synchronously
                waiter(stop.value)
            return
        if isinstance(command, WaitTrigger):
            command.trigger.waiters.append(self.step)
        elif isinstance(command, WaitProcess):
            if command.process.finished:
                self.sim.schedule(0, self.step, command.process.value)
            else:
                command.process.waiters.append(self.step)
        else:
            self.sim.schedule(getattr(command, "delay", command), self.step, None)

    def join(self):
        return (yield WaitProcess(self))


class _RefTrigger:
    def __init__(self, sim):
        self.sim, self.waiters = sim, []

    def fire(self, value=None):
        waiters, self.waiters = self.waiters, []
        for waiter in waiters:
            self.sim.schedule(0, waiter, value)

    def wait(self):
        return (yield WaitTrigger(self))


def _random_program(sim, make_trigger, seed):
    """A seeded program over ``sim``'s public surface.  Every decision
    comes from an RNG keyed by the acting event's tag, so two schedulers
    that fire events in the same order make the same decisions."""
    log = []
    triggers = [make_trigger(sim) for _ in range(2)]
    handles = {}
    procs = []

    def later(tag, delay):
        handles[tag] = sim.schedule(delay, lambda: callback(tag))
        return handles[tag]

    def callback(tag):
        log.append((sim.now, tag))
        rng = random.Random(f"{seed}/{tag}")
        for j in range(rng.randint(0, 3) if tag.count(".") < 4 else 0):
            child = f"{tag}.{j}"
            action = rng.random()
            if action < 0.5:
                event = later(child, rng.choice(_DELAYS))
                if rng.random() < 0.25:
                    event.cancel()
            elif action < 0.6:
                handles[rng.choice(sorted(handles))].cancel()
            elif action < 0.75:
                rng.choice(triggers).fire(child)
            elif action < 0.9:
                procs.append(sim.spawn(process(child)))
            else:
                done = [p for p in procs if p.finished]
                if done:
                    sim.spawn(joiner(child, rng.choice(done)))

    def process(tag):
        log.append((sim.now, tag, "start"))
        rng = random.Random(f"{seed}/{tag}")
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.35:
                yield rng.choice(_DELAYS)
            elif kind < 0.55:
                yield Timeout(rng.choice(_DELAYS))
            elif kind < 0.85:
                value = yield from rng.choice(triggers).wait()
                log.append((sim.now, tag, "woke", value))
            elif procs:
                value = yield from rng.choice(procs).join()
                log.append((sim.now, tag, "joined", value))
        log.append((sim.now, tag, "end"))
        return tag

    def joiner(tag, target):
        value = yield from target.join()
        log.append((sim.now, tag, "joined-finished", value))

    rng = random.Random(seed)
    for i in range(6):
        later(f"r{i}", rng.choice(_DELAYS))
    for i in range(3):
        procs.append(sim.spawn(process(f"p{i}")))
    checkpoints = []
    for until in (0, 4, 5, 12, 30):
        sim.run(until=until)
        checkpoints.append((sim.now, sim.pending_events))
        later(f"u{until}", rng.choice(_DELAYS))
        triggers[until % 2].fire(f"u{until}")
    sim.run()
    checkpoints.append((sim.now, sim.pending_events))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(16))
def test_firing_order_matches_reference_scheduler(seed):
    got = _random_program(Simulator(), Trigger, seed)
    want = _random_program(_RefSim(), _RefTrigger, seed)
    assert got == want
    assert len(got[0]) > 20


def test_reference_program_covers_ties_cancels_and_pending():
    """The differential program exercises what it claims to, summed
    over its seeds: cancelled events still queued at a checkpoint,
    finished-process joins, and same-instant ties."""
    pending = joins = ties = 0
    for seed in range(16):
        log, checkpoints = _random_program(Simulator(), Trigger, seed)
        pending += sum(count for _, count in checkpoints[:-1])
        joins += sum(1 for entry in log if "joined-finished" in entry)
        times = [entry[0] for entry in log]
        ties += len(times) - len(set(times))
    assert pending and joins and ties > 50


# --- event-count lock --------------------------------------------------------


class _CountingTracer(Tracer):
    """Counts kernel events; records nothing else."""

    def __init__(self):
        super().__init__(categories=frozenset())
        self.kernel_counts = Counter()

    def kernel_event(self, what, ts, fire_at):
        self.kernel_counts[what] += 1


def test_kernel_event_counts_are_locked():
    """One READ and one PROGRAM on 1 channel x 2 LUNs (waveform tier)
    schedule, fire and cancel exactly these many kernel events.  A
    change to the kernel's dispatch may make each event cheaper but
    must not add, drop or merge any."""
    sim = Simulator()
    tracer = _CountingTracer()
    sim.set_tracer(tracer)
    controller = BabolController(
        sim, ControllerConfig(lun_count=2, track_data=False))
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    controller.run_to_completion(controller.program_page(1, 1, 0, 0))
    counts = {what: tracer.kernel_counts[what]
              for what in ("schedule", "fire", "cancel")}
    assert counts == {"schedule": 512, "fire": 512, "cancel": 0}
