"""Workloads, episodes and correctness checks of the command benchmark.

An *episode* is one cold, self-contained run of a workload:

1. every module-level cache in the loaded ``repro`` packages is emptied,
   so the episode sees what a fresh CLI process sees;
2. the stack is built from the workload's :class:`ExperimentSpec`
   (``build_experiment``: controllers, sharded FTL, prefill, queue-depth
   engine) — timed as set-up;
3. one closed-loop submitter process inside the simulator keeps every
   channel's queue pair full with the pre-generated commands — timed as
   the measured phase (``time.process_time``);
4. the simulated outcome is collected, hashed and checked.

The inputs (LPNs, write payloads) are generated from the seed before
any of this, and the same inputs replay in every episode of a run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import random
import re
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config.build import build_experiment, stack_profile
from repro.config.specs import (
    ExperimentSpec,
    FtlSpec,
    GeometrySpec,
    StackSpec,
    WorkloadSpec,
)
from repro.host.engine import ScaleCommand
from repro.host.hic import HostOpcode

OPCODES = {
    "read": HostOpcode.READ,
    "write": HostOpcode.WRITE,
    "trim": HostOpcode.TRIM,
    "flush": HostOpcode.FLUSH,
}

# Prefill writes this token into the first bytes of every page
# (``PageMappedFtl.prefill``); the rest of the page reads erased.
PREFILL_BYTE = 0x5A
PREFILL_TOKEN = 64
ERASED_BYTE = 0xFF


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ExperimentSpec
    window: int            # completed commands per host-CPU window
    generate: Callable     # (rng, workload) -> list[(kind, lpn, version)]
    verify_data: bool = False
    gc_expected: bool = True
    in_order: bool = False  # one submission queue instead of one per channel

    @property
    def commands(self) -> int:
        """Commands per episode."""
        return self.spec.workload.io_count

    @property
    def page_size(self) -> int:
        return stack_profile(self.spec.stack).geometry.page_size

    @property
    def logical_pages(self) -> int:
        """Global logical capacity, as :class:`ShardedFtl` derives it."""
        stack = self.spec.stack
        ftl = stack.ftl
        pages_per_block = stack_profile(stack).geometry.pages_per_block
        blocks = ftl.blocks_per_lun - ftl.overprovision_blocks
        per_shard = stack.luns_per_channel * blocks * pages_per_block
        if ftl.checkpoint_interval > 0:
            per_shard -= ftl.meta_blocks * pages_per_block
        return per_shard * stack.channels

    @property
    def prefilled(self) -> int:
        """LPNs ``[0, prefilled)`` hold data before the first command."""
        stack = self.spec.stack
        if stack.ftl.prefill_pages is not None:
            return stack.ftl.prefill_pages
        return min(self.logical_pages,
                   64 * stack.channels * stack.luns_per_channel)

    def with_fidelity(self, fidelity: str) -> "Workload":
        stack = dataclasses.replace(self.spec.stack, fidelity=fidelity)
        return dataclasses.replace(self, spec=self.spec.replace(stack=stack))

    def with_commands(self, commands: int) -> "Workload":
        load = dataclasses.replace(self.spec.workload, io_count=commands)
        return dataclasses.replace(self, spec=self.spec.replace(workload=load),
                                   window=min(self.window, commands))


# ----------------------------------------------------------------------
# Input generators (seeded; the program only ever sees their output)
# ----------------------------------------------------------------------

def _random_reads(rng: np.random.Generator, workload: Workload) -> list:
    lpns = rng.integers(0, workload.prefilled, size=workload.commands)
    return [("read", int(lpn), 0) for lpn in lpns]


def _sequential_writes(rng: np.random.Generator, workload: Workload) -> list:
    span = workload.logical_pages
    start = int(rng.integers(0, span))
    return [("write", (start + i) % span, 0)
            for i in range(workload.commands)]


def _mixed(rng: np.random.Generator, workload: Workload) -> list:
    """~65/25/5/5 write/read/trim/flush over the prefilled half.

    Reads and trims only target *settled* LPNs: at least ``qd`` later
    submissions went to the same channel queue pair since the LPN was
    last touched, so backpressure guarantees that touch completed before
    the read or trim is staged.  Every read therefore has one known
    expected payload: the last write's, or the prefill token.
    """
    channels = workload.spec.stack.channels
    qd = workload.spec.workload.queue_depth
    span = workload.prefilled
    ops: list = []
    versions: dict[int, int] = {}
    pair_subs = [0] * channels
    touched: dict[int, int] = {}
    readable = list(range(span))
    for _ in range(workload.commands):
        roll = rng.random()
        settled = [
            lpn for lpn in readable
            if pair_subs[lpn % channels] - touched.get(lpn, -qd) >= qd
        ] if 0.05 <= roll < 0.35 else []
        if roll < 0.05:
            lpn = int(rng.integers(0, span))
            ops.append(("flush", lpn, 0))
        elif roll < 0.10 and settled:
            lpn = settled[int(rng.integers(0, len(settled)))]
            version = versions.get(lpn, 0) + 1
            versions[lpn] = version
            readable.remove(lpn)
            ops.append(("trim", lpn, version))
            touched[lpn] = pair_subs[lpn % channels] + 1
        elif roll < 0.35 and settled:
            lpn = settled[int(rng.integers(0, len(settled)))]
            ops.append(("read", lpn, versions.get(lpn, 0)))
            touched[lpn] = pair_subs[lpn % channels] + 1
        else:
            lpn = int(rng.integers(0, span))
            version = versions.get(lpn, 0) + 1
            versions[lpn] = version
            if lpn not in readable:
                readable.append(lpn)
            ops.append(("write", lpn, version))
            touched[lpn] = pair_subs[lpn % channels] + 1
        pair_subs[lpn % channels] += 1
    return ops


def payload(lpn: int, version: int, nbytes: int) -> np.ndarray:
    """Write payload of ``lpn`` at ``version`` (version 0 = prefill)."""
    if version == 0:
        data = np.full(nbytes, ERASED_BYTE, dtype=np.uint8)
        data[:PREFILL_TOKEN] = PREFILL_BYTE
        return data
    data = np.full(nbytes, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0:4] = (lpn & 0xFF, (lpn >> 8) & 0xFF,
                 version & 0xFF, (version >> 8) & 0xFF)
    return data


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

def _wave_8ch(mix: str, pattern: str, commands: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"cmdbench-wave-{mix}",
        stack=StackSpec(vendor="hynix", channels=8, luns_per_channel=4,
                        runtime="coroutine", fidelity="waveform",
                        ftl=FtlSpec()),
        workload=WorkloadSpec(mix=mix, pattern=pattern, io_count=commands,
                              queue_depth=32),
    )


# The crashfuzz-mix example stack widened to 4 channels x 4 LUNs.
_TLM_MIXED = ExperimentSpec(
    name="cmdbench-tlm-mixed-gc",
    stack=StackSpec(
        vendor="hynix", channels=4, luns_per_channel=4, fidelity="tlm",
        track_data=True, noiseless=True, factory_bad_rate=0.0,
        geometry=GeometrySpec(page_size=2048, spare_size=64,
                              pages_per_block=16, blocks_per_plane=16,
                              planes=2),
        ftl=FtlSpec(blocks_per_lun=10, overprovision_blocks=4,
                    checkpoint_interval=48, journal_flush_records=16,
                    prefill_pages=704),   # half the logical span
    ),
    workload=WorkloadSpec(mix="crashfuzz", io_count=8000, queue_depth=8),
)

WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="wave-randread-8ch",
            spec=_wave_8ch("read", "random", 2048),
            window=32, generate=_random_reads,
            gc_expected=False,
        ),
        Workload(
            name="wave-seqwrite-8ch",
            spec=_wave_8ch("write", "sequential", 768),
            window=16, generate=_sequential_writes,
            gc_expected=False,
        ),
        Workload(
            name="tlm-mixed-gc",
            spec=_TLM_MIXED,
            window=100, generate=_mixed,
            verify_data=True, in_order=True,
        ),
    )
}


@dataclass
class Inputs:
    ops: list                     # (kind, lpn, version) per command
    payloads: list                # write payload per command, or None


#: Independent input streams per seed; a run cycles through them and
#: pools the simulated metrics of all of them.
SUBSTREAMS = 8


def generate(workload: Workload, seed: int) -> list:
    """The :class:`Inputs` of every stream of ``seed`` (numpy seeds
    ``[seed, k]``).  Streams share equal write payloads."""
    size = workload.page_size
    shared: dict = {}
    streams = []
    for k in range(SUBSTREAMS):
        ops = workload.generate(np.random.default_rng([seed, k]), workload)
        payloads = [None] * len(ops)
        if workload.verify_data:
            for index, (kind, lpn, version) in enumerate(ops):
                if kind == "write":
                    key = (lpn, version)
                    if key not in shared:
                        shared[key] = payload(lpn, version, size)
                    payloads[index] = shared[key]
        streams.append(Inputs(ops=ops, payloads=payloads))
    return streams


# ----------------------------------------------------------------------
# Cold start
# ----------------------------------------------------------------------

_CACHE_NAME = re.compile(r"cache$", re.IGNORECASE)


def cold_start() -> int:
    """Empty every module-level cache of the loaded ``repro`` modules.

    Covers module dicts named ``*_CACHE`` (the op-IR program and
    builder-resolve caches) and ``functools`` caches.  Per-instance
    caches (the CAWriter encode cache, the fastops templates) live on
    the controllers, which every episode builds fresh.  Returns how
    many caches were emptied.
    """
    emptied = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and _CACHE_NAME.search(attr):
                value.clear()
                emptied += 1
            elif callable(getattr(value, "cache_clear", None)) \
                    and getattr(value, "__module__", None) == name:
                value.cache_clear()
                emptied += 1
    gc.collect()
    return emptied


# ----------------------------------------------------------------------
# Host speed calibration
# ----------------------------------------------------------------------

#: CPU seconds one calibration slice takes on the reference host.  Host
#: times are reported in reference-host seconds (see README.md).
REFERENCE_SLICE_S = 0.0025
_SLICE_EVENTS = 400
_SLICE_STEPS = 4           # memory cells touched per event
_POOL_CELLS = 60_000       # ~15 MB of linked cells, shuffled


class _Event:
    __slots__ = ("time", "seq", "proc")

    def __init__(self, time: int, seq: int, proc):
        self.time = time
        self.seq = seq
        self.proc = proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Cell:
    __slots__ = ("value", "next", "tag")

    def __init__(self, value: int):
        self.value = value
        self.next = None
        self.tag = {"k": value}


def _ticker(state: dict, key: int):
    total = 0
    while True:
        total += yield
        state[key & 7] = total


class _Walk:
    """The slice's working set: cells linked in a fixed shuffled order.
    Each slice continues where the last one stopped, so it always
    touches memory that has gone cold, as the program's does."""

    def __init__(self):
        cells = [_Cell(i) for i in range(_POOL_CELLS)]
        order = list(range(_POOL_CELLS))
        random.Random(5).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            cells[a].next = cells[b]
        self.cell = cells[0]     # the ring keeps every cell alive


_walk = None


def calibration_slice() -> float:
    """One fixed slice of interpreter work shaped like a discrete-event
    kernel over a large object graph (a heap of events, generator
    resumption, pointer chasing through attributes and dicts); returns
    the CPU seconds it took.  It never changes with the program, so the
    ratio of program time to slice time cancels how fast the host runs
    at that moment.
    """
    global _walk
    if _walk is None:
        _walk = _Walk()        # built once per process, outside the timer
    cell = _walk.cell
    t0 = time.process_time()
    state: dict = {}
    procs = [_ticker(state, key) for key in range(16)]
    for proc in procs:
        next(proc)
    heap: list = []
    for i in range(_SLICE_EVENTS):
        for _ in range(_SLICE_STEPS):
            cell = cell.next
            cell.value += 1
            cell.tag["k"] = i
        heapq.heappush(heap, _Event((i * 7919) % 4099, i, procs[i & 15]))
        if len(heap) > 32:
            event = heapq.heappop(heap)
            event.proc.send(event.time)
    elapsed = time.process_time() - t0
    _walk.cell = cell
    return elapsed


def normalized(cpu_s: float, slice_s: float) -> float:
    """``cpu_s`` of program time in reference-host seconds."""
    return cpu_s * REFERENCE_SLICE_S / slice_s


# ----------------------------------------------------------------------
# One episode
# ----------------------------------------------------------------------

@dataclass
class Episode:
    workload: Workload
    built: object
    setup_s: float                # reference-host seconds
    cpu_s: float                  # measured phase, raw CPU seconds
    host_s: float                 # measured phase, reference-host seconds
    window_us: list               # reference-host us/cmd per window
    slices: list                  # calibration slice CPU seconds
    completed: list               # ScaleCommand, cid order
    read_data: dict               # input index -> bytes read back
    elapsed_ns: int
    error: Optional[str]
    read_holds: int = 0

    @property
    def attempted(self) -> int:
        return self.workload.commands

    def latencies_ns(self) -> np.ndarray:
        return np.array([c.finished_at - c.submitted_at
                         for c in self.completed], dtype=np.int64)

    def queue_waits_ns(self) -> np.ndarray:
        return np.array([c.started_at - c.submitted_at
                         for c in self.completed], dtype=np.int64)

    def ftl_counters(self) -> dict:
        ftl = self.built.ftl
        return {
            "checkpoints": ftl.checkpoints_written,
            "gc_page_moves": ftl.gc_page_moves,
            "gc_runs": ftl.gc_runs,
            "host_reads": ftl.host_reads,
            "host_writes": ftl.host_writes,
            "journal_pages": ftl.journal_pages_written,
        }

    def digest(self) -> str:
        """Hash of the simulated outcome: every completed command's
        ``(cid, submitted_at, finished_at)`` plus the FTL counters."""
        h = hashlib.sha256()
        for c in self.completed:
            h.update(f"{c.cid},{c.submitted_at},{c.finished_at};".encode())
        h.update(json.dumps(self.ftl_counters(), sort_keys=True).encode())
        h.update(f"error={self.error}".encode())
        return h.hexdigest()[:16]

    def problems(self, inputs: Inputs) -> list:
        """Every wrong output of this episode (empty = correct).

        An abort is not a wrong output: the commands it leaves unfinished
        count in :meth:`failed`.  Commands lost without an abort are.
        """
        found = []
        done = {c.tag for c in self.completed}
        if len(done) != len(self.completed) or not done <= set(
                range(len(inputs.ops))):
            found.append("a command completed twice or was never submitted")
        elif self.error is None and len(done) != len(inputs.ops):
            found.append(f"{len(inputs.ops) - len(done)} of "
                         f"{len(inputs.ops)} commands vanished without an "
                         f"error")
        for c in self.completed:
            kind, lpn, _ = inputs.ops[c.tag]
            if c.lpn != lpn or c.opcode is not OPCODES[kind] or not (
                    c.submitted_at <= c.started_at <= c.finished_at):
                found.append(f"cid {c.cid}: wrong command or timestamps")
                break
        bad = self.bad_reads(inputs)
        if bad:
            found.append(f"{len(bad)} reads returned the wrong data")
        if not self.workload.gc_expected and self.built.ftl.gc_runs:
            found.append(f"GC ran {self.built.ftl.gc_runs} times on a "
                         f"workload defined to stay in free space")
        return found

    def bad_reads(self, inputs: Inputs) -> list:
        """Input indexes of reads whose DRAM bytes differ from the
        expected page."""
        size = self.workload.page_size
        return [
            index for index, data in self.read_data.items()
            if not np.array_equal(
                data, payload(inputs.ops[index][1], inputs.ops[index][2], size))
        ]

    def failed(self, inputs: Inputs) -> int:
        """Commands that failed, never finished or returned wrong data."""
        return self.attempted - len(self.completed) + len(self.bad_reads(inputs))


def _submitter(engine, inputs: Inputs, queues: list, window: int,
               marks: list, read_data: Optional[dict], page_size: int,
               stats: dict, calibrate: bool):
    """Closed loop: keep the queue pairs full from ``queues``.

    Each queue holds input indexes in input order and is drained until
    its head's channel is saturated.  With one queue per channel a
    saturated channel never blocks the others; with a single queue the
    submission is strictly in input order (head-of-line blocking).

    Every ``window`` completions it appends ``(completed, cpu time
    before, calibration slice seconds, cpu time after)`` to ``marks``
    (with ``calibrate`` off the slice is skipped and reads 0).

    With ``read_data`` set, a read is held back until every earlier
    write of its LPN has completed (a host does not read a page it is
    still writing), so its expected payload is the last write's in
    input order; ``stats["read_holds"]`` counts those waits.
    """
    ops = inputs.ops
    payloads = inputs.payloads
    pairs = engine.pairs
    scanned = [0] * len(pairs)
    writing: dict[int, int] = {}   # LPN -> writes submitted, not completed
    next_mark = window

    def observe() -> None:
        nonlocal next_mark
        if engine.completed >= next_mark:
            marks.append(_mark(engine.completed, calibrate))
            next_mark = (engine.completed // window + 1) * window
        if read_data is None:
            return
        # A read's DRAM slot is only reused by a later submission, and
        # this process makes every submission: copy before submitting.
        for index, pair in enumerate(pairs):
            done = pair.completions
            for c in done[scanned[index]:]:
                if c.opcode is HostOpcode.READ:
                    dram = engine.shard(c.channel).controller.dram
                    read_data[c.tag] = dram.read(c.dram_address, page_size)
                elif c.opcode is HostOpcode.WRITE:
                    writing[c.lpn] -= 1
            scanned[index] = len(done)

    def fill() -> None:
        for queue in queues:
            while queue:
                kind, lpn, _ = ops[queue[0]]
                if engine.pair_for(lpn).free_slots <= 0:
                    break
                if read_data is not None:
                    if kind == "read" and writing.get(lpn):
                        stats["read_holds"] += 1
                        break
                    if kind == "write":
                        writing[lpn] = writing.get(lpn, 0) + 1
                index = queue.popleft()
                engine.submit(ScaleCommand(opcode=OPCODES[kind], lpn=lpn,
                                           payload=payloads[index],
                                           tag=index))

    while True:
        fill()
        if not any(queues):
            break
        engine.ring_doorbells()
        yield from engine.completion_pulse.wait()
        observe()
    engine.ring_doorbells()
    while engine.outstanding:
        yield from engine.completion_pulse.wait()
        observe()


def _mark(completed: int, calibrate: bool) -> tuple:
    before = time.process_time()
    slice_s = calibration_slice() if calibrate else 0.0
    return completed, before, slice_s, time.process_time()


def run_episode(workload: Workload, inputs: Inputs, profiler=None,
                campaign=None, on_built=None) -> Episode:
    """Build, drive and collect one cold episode.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the measured
    phase only, and calibration slices are then skipped.  ``campaign``
    is a :class:`repro.faults.FaultCampaign` attached to every
    controller before the measured phase.  ``on_built(built)`` runs
    after set-up, outside every timer.
    """
    calibrate = profiler is None
    cold_start()
    before = calibration_slice()
    t0 = time.process_time()
    built = build_experiment(workload.spec, auto_dram=True)
    setup_cpu = time.process_time() - t0
    if built.ftl.logical_pages != workload.logical_pages \
            or built.ftl.mapped_count != workload.prefilled:
        raise RuntimeError(f"{workload.name}: stack geometry differs from "
                           f"the benchmark's input span")
    if campaign is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(campaign)
        for controller in built.controllers:
            injector.attach(controller)
    if on_built is not None:
        on_built(built)
    engine = built.engine
    read_data = {} if workload.verify_data else None
    stats = {"read_holds": 0}
    marks: list = []
    if workload.in_order:
        queues = [deque(range(len(inputs.ops)))]
    else:
        queues = [deque() for _ in engine.pairs]
        for index, (_, lpn, _) in enumerate(inputs.ops):
            queues[engine.route(lpn)[0]].append(index)
    process = _submitter(engine, inputs, queues, workload.window, marks,
                         read_data, workload.page_size, stats, calibrate)
    start_ns = built.sim.now
    error = None
    gc.collect()
    marks.append(_mark(0, True))
    setup_s = normalized(setup_cpu, (before + marks[0][2]) / 2)
    if profiler is not None:
        profiler.enable()
    try:
        built.sim.run_process(process, name="cmdbench-submitter")
    except Exception as exc:  # an abort is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    if profiler is not None:
        profiler.disable()
    marks.append(_mark(engine.completed, True))
    completed = sorted((c for pair in engine.pairs for c in pair.completions),
                       key=lambda c: c.cid)
    cpu_s = host_s = 0.0
    window_us = []
    for (n0, _, slice0, resumed), (n1, stopped, slice1, _) in zip(
            marks, marks[1:]):
        cpu = stopped - resumed
        cpu_s += cpu
        if calibrate:
            host = normalized(cpu, (slice0 + slice1) / 2)
            host_s += host
            if n1 > n0:
                window_us.append(host / (n1 - n0) * 1e6)
    return Episode(
        workload=workload, built=built, setup_s=setup_s, cpu_s=cpu_s,
        host_s=host_s, window_us=window_us,
        slices=[mark[2] for mark in marks if mark[2]],
        completed=completed, read_data=read_data or {},
        elapsed_ns=built.sim.now - start_ns, error=error,
        read_holds=stats["read_holds"],
    )
