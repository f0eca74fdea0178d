"""NVMe-style command layer (the Fig. 1 HIC, more faithfully).

Real hosts speak NVMe: logical blocks (typically 4 KiB), not flash
pages.  This module translates that command set onto the page-granular
queue pairs of :class:`~repro.host.engine.ScaleEngine`:

* :class:`NvmeCommand` — READ / WRITE / FLUSH / DSM(deallocate) with
  ``slba``/``nlb`` addressing and a PRP-style DRAM pointer;
* :class:`NvmeController` — LBA→LPN translation, including
  **read-modify-write** for writes that cover only part of a flash
  page (a 4 KiB write into a 16 KiB page really does cost a page read
  plus a page program — visible in the measured latencies).

Each submitted command runs as one host process that issues its page
spans to the engine one at a time and owns one page buffer from submit
until its completion entry is posted.  (An engine slot frees when its
page command completes, too early for an RMW merge to read from it.)
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.ftl.ftl import PageMappedFtl
from repro.host.engine import QueueSaturatedError, ScaleCommand, ScaleEngine
from repro.host.hic import HostOpcode
from repro.sim import Simulator
from repro.sim.sync import Trigger

_cids = itertools.count(1)


class NvmeOpcode(enum.IntEnum):
    """NVM command set opcodes (the subset this HIC implements)."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    DSM = 0x09  # dataset management: deallocate (trim)


class NvmeStatus(enum.IntEnum):
    SUCCESS = 0x00
    INVALID_FIELD = 0x02
    INTERNAL_ERROR = 0x06
    LBA_OUT_OF_RANGE = 0x80


@dataclass
class NvmeCommand:
    """One submission-queue entry."""

    opcode: NvmeOpcode
    slba: int = 0
    block_count: int = 1          # the spec's NLB is zero-based; this is not
    prp: int = 0                  # DRAM address of the data buffer
    cid: int = field(default_factory=lambda: next(_cids))
    submitted_at: int = 0


@dataclass
class CompletionEntry:
    """One completion-queue entry."""

    cid: int
    status: NvmeStatus
    finished_at: int

    @property
    def ok(self) -> bool:
        return self.status is NvmeStatus.SUCCESS


class NvmeController:
    """LBA-granular NVMe front end over a one-FTL host engine."""

    def __init__(self, sim: Simulator, engine: ScaleEngine, block_size: int = 4096):
        ftl = engine.ftl
        if not isinstance(ftl, PageMappedFtl):
            raise ValueError("an NVMe namespace maps onto one PageMappedFtl")
        if engine.auto_dram:
            raise ValueError("NVMe commands bring their own page buffers; "
                             "build the engine without auto_dram")
        if ftl.page_size % block_size:
            raise ValueError("page size must be a multiple of the block size")
        self.sim = sim
        self.engine = engine
        self.ftl = ftl
        self.block_size = block_size
        self.blocks_per_page = ftl.page_size // block_size
        self.capacity_blocks = ftl.logical_pages * self.blocks_per_page
        # One page buffer per command in flight, after the GC staging
        # area.
        self.depth = engine.queue_depth * engine.channel_count
        base = ftl.config.gc_staging_base + 4 * ftl.page_size
        self._buffers = deque(
            base + index * ftl.page_size for index in range(self.depth)
        )
        self.completions: list[CompletionEntry] = []
        self._by_cid: dict[int, CompletionEntry] = {}
        self.cq_doorbell = Trigger(sim)
        self.rmw_count = 0
        self.commands_executed = 0

    def identify(self) -> dict:
        """A minimal IDENTIFY-namespace payload."""
        return {
            "capacity_blocks": self.capacity_blocks,
            "block_size": self.block_size,
            "blocks_per_page": self.blocks_per_page,
            "model": "BABOL-REPRO-SSD",
        }

    # -- host side -------------------------------------------------------

    @property
    def free_slots(self) -> int:
        return len(self._buffers)

    def submit(self, command: NvmeCommand) -> int:
        """Start one command; returns its id.

        Raises :class:`~repro.host.engine.QueueSaturatedError` when
        every page buffer is held by a command in flight.
        """
        if not self._buffers:
            raise QueueSaturatedError(
                f"NVMe queue full ({self.depth} commands in flight)"
            )
        command.submitted_at = self.sim.now
        buffer = self._buffers.popleft()
        # cid is process-global: keep it out of the (traced) name.
        self.sim.spawn(self._run(command, buffer), name="nvme-cmd")
        return command.cid

    def wait_completion(self, cid: int) -> Generator:
        """Process helper: block until ``cid`` completes."""
        while cid not in self._by_cid:
            yield from self.cq_doorbell.wait()
        return self._by_cid[cid]

    def drain(self) -> Generator:
        """Block until every submitted command has completed."""
        while len(self._buffers) < self.depth:
            yield from self.cq_doorbell.wait()

    def _run(self, command: NvmeCommand, buffer: int) -> Generator:
        status = yield from self._execute(command, buffer)
        self._buffers.append(buffer)
        entry = CompletionEntry(
            cid=command.cid, status=status, finished_at=self.sim.now
        )
        self.completions.append(entry)
        self._by_cid[command.cid] = entry
        self.cq_doorbell.fire(entry)

    def _issue(self, opcode: HostOpcode, lpn: int, buffer: int = 0) -> Generator:
        """Run one page command on the engine and wait for it."""
        engine = self.engine
        pair = engine.pair_for(lpn)
        while pair.free_slots <= 0:
            engine.ring_doorbells()
            yield from engine.completion_pulse.wait()
        command = ScaleCommand(opcode=opcode, lpn=lpn, dram_address=buffer)
        engine.submit(command)
        pair.ring()
        while command.finished_at is None:
            yield from pair.cq_pulse.wait()

    # -- execution -------------------------------------------------------

    def _execute(self, command: NvmeCommand, buffer: int) -> Generator:
        self.commands_executed += 1
        if command.opcode is NvmeOpcode.FLUSH:
            yield from self._issue(HostOpcode.FLUSH, 0)
            return NvmeStatus.SUCCESS

        if command.block_count <= 0:
            return NvmeStatus.INVALID_FIELD
        if command.slba + command.block_count > self.capacity_blocks:
            return NvmeStatus.LBA_OUT_OF_RANGE

        if command.opcode is NvmeOpcode.READ:
            yield from self._read(command, buffer)
        elif command.opcode is NvmeOpcode.WRITE:
            yield from self._write(command, buffer)
        elif command.opcode is NvmeOpcode.DSM:
            yield from self._deallocate(command)
        else:
            return NvmeStatus.INVALID_FIELD
        return NvmeStatus.SUCCESS

    def _spans(self, command: NvmeCommand):
        """Split an LBA range into per-page (lpn, first_block, nblocks)."""
        lba = command.slba
        remaining = command.block_count
        while remaining:
            lpn, offset = divmod(lba, self.blocks_per_page)
            nblocks = min(self.blocks_per_page - offset, remaining)
            yield lpn, offset, nblocks
            lba += nblocks
            remaining -= nblocks

    def _read(self, command: NvmeCommand, buffer: int) -> Generator:
        dram = self.ftl.controller.dram
        out = command.prp
        for lpn, offset, nblocks in self._spans(command):
            if self.ftl.map.lookup(lpn) is None:
                # Unwritten blocks read as zeroes, per NVMe deallocate
                # semantics.
                dram.write(out, np.zeros(nblocks * self.block_size, dtype=np.uint8))
            else:
                yield from self._issue(HostOpcode.READ, lpn, buffer)
                chunk = dram.read(
                    buffer + offset * self.block_size, nblocks * self.block_size
                )
                dram.write(out, chunk)
            out += nblocks * self.block_size

    def _write(self, command: NvmeCommand, buffer: int) -> Generator:
        dram = self.ftl.controller.dram
        src = command.prp
        for lpn, offset, nblocks in self._spans(command):
            if nblocks < self.blocks_per_page:
                # Read-modify-write: fetch the page's current content
                # (if any), overlay the host blocks, program the merge.
                self.rmw_count += 1
                if self.ftl.map.lookup(lpn) is not None:
                    yield from self._issue(HostOpcode.READ, lpn, buffer)
                else:
                    dram.write(
                        buffer, np.zeros(self.ftl.page_size, dtype=np.uint8)
                    )
            chunk = dram.read(src, nblocks * self.block_size)
            dram.write(buffer + offset * self.block_size, chunk)
            yield from self._issue(HostOpcode.WRITE, lpn, buffer)
            src += nblocks * self.block_size

    def _deallocate(self, command: NvmeCommand) -> Generator:
        for lpn, offset, nblocks in self._spans(command):
            if offset == 0 and nblocks == self.blocks_per_page:
                yield from self._issue(HostOpcode.TRIM, lpn)
            # Partial-page deallocations are advisory; ignoring them is
            # spec-compliant.
