"""Tests for the NVMe front end and the reliable-read pipeline."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.core.reliability import ReadOutcome, ReliableReader
from repro.ecc import BchConfig, BchEngine
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import QueueSaturatedError, ScaleEngine
from repro.host.nvme import (
    NvmeCommand,
    NvmeController,
    NvmeOpcode,
    NvmeStatus,
)
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size  # 2048 in the test geometry
BLOCK = 512                              # 4 logical blocks per page


def make_nvme(lun_count=2, depth=8, track_data=True):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=track_data, seed=5),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
    )
    engine = ScaleEngine(sim, ftl, queue_depth=depth)
    nvme = NvmeController(sim, engine, block_size=BLOCK)
    return sim, controller, ftl, nvme


def run_cmd(sim, nvme, command):
    cid = nvme.submit(command)

    def waiter():
        entry = yield from nvme.wait_completion(cid)
        return entry

    return sim.run_process(waiter())


# --- NVMe basics ------------------------------------------------------------


def test_identify_reports_capacity():
    sim, controller, ftl, nvme = make_nvme()
    info = nvme.identify()
    assert info["block_size"] == BLOCK
    assert info["capacity_blocks"] == ftl.logical_pages * (PAGE // BLOCK)


def test_block_size_must_divide_page():
    sim, controller, ftl, nvme = make_nvme()
    with pytest.raises(ValueError):
        NvmeController(sim, nvme.engine, block_size=600)


def test_engine_must_be_one_ftl_without_slot_addressing():
    from repro.ftl import ShardedFtl

    sim, controller, ftl, nvme = make_nvme()
    # Slot addressing would overwrite the command-owned page buffers.
    with pytest.raises(ValueError, match="auto_dram"):
        NvmeController(sim, ScaleEngine(sim, ftl, auto_dram=True))
    sharded = ShardedFtl(sim, [controller], ftl.config)
    with pytest.raises(ValueError, match="PageMappedFtl"):
        NvmeController(sim, ScaleEngine(sim, sharded))


def test_full_page_write_then_read_roundtrip():
    sim, controller, ftl, nvme = make_nvme()
    bpp = nvme.blocks_per_page
    payload = (np.arange(PAGE) % 241).astype(np.uint8)
    controller.dram.write(0, payload)
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.WRITE, slba=0,
                                         block_count=bpp, prp=0))
    assert entry.ok
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=bpp, prp=PAGE * 4))
    assert entry.ok
    np.testing.assert_array_equal(controller.dram.read(PAGE * 4, PAGE), payload)
    assert nvme.rmw_count == 0  # full-page write: no read-modify-write


def test_partial_write_triggers_rmw_and_merges():
    sim, controller, ftl, nvme = make_nvme()
    bpp = nvme.blocks_per_page
    base = np.full(PAGE, 0x11, dtype=np.uint8)
    controller.dram.write(0, base)
    run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.WRITE, slba=0, block_count=bpp, prp=0))

    patch = np.full(BLOCK, 0x99, dtype=np.uint8)
    controller.dram.write(50_000, patch)
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.WRITE, slba=1,
                                         block_count=1, prp=50_000))
    assert entry.ok
    assert nvme.rmw_count == 1

    run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.READ, slba=0, block_count=bpp,
                                 prp=PAGE * 4))
    merged = controller.dram.read(PAGE * 4, PAGE)
    assert (merged[:BLOCK] == 0x11).all()
    assert (merged[BLOCK:2 * BLOCK] == 0x99).all()
    assert (merged[2 * BLOCK:] == 0x11).all()


def test_read_spanning_pages():
    sim, controller, ftl, nvme = make_nvme()
    bpp = nvme.blocks_per_page
    for page_index, fill in enumerate((0xAA, 0xBB)):
        controller.dram.write(0, np.full(PAGE, fill, dtype=np.uint8))
        run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.WRITE, slba=page_index * bpp,
                                     block_count=bpp, prp=0))
    # Read the last block of page 0 plus the first block of page 1.
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.READ, slba=bpp - 1,
                                         block_count=2, prp=PAGE * 4))
    assert entry.ok
    out = controller.dram.read(PAGE * 4, 2 * BLOCK)
    assert (out[:BLOCK] == 0xAA).all()
    assert (out[BLOCK:] == 0xBB).all()


def test_unwritten_blocks_read_zero():
    sim, controller, ftl, nvme = make_nvme()
    controller.dram.write(PAGE * 4, np.full(BLOCK, 0xFF, dtype=np.uint8))
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=1, prp=PAGE * 4))
    assert entry.ok
    assert (controller.dram.read(PAGE * 4, BLOCK) == 0).all()


def test_lba_out_of_range_rejected():
    sim, controller, ftl, nvme = make_nvme()
    entry = run_cmd(sim, nvme, NvmeCommand(
        NvmeOpcode.READ, slba=nvme.capacity_blocks, block_count=1, prp=0))
    assert entry.status is NvmeStatus.LBA_OUT_OF_RANGE


def test_invalid_block_count_rejected():
    sim, controller, ftl, nvme = make_nvme()
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=0, prp=0))
    assert entry.status is NvmeStatus.INVALID_FIELD


def test_flush_completes_immediately():
    sim, controller, ftl, nvme = make_nvme()
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.FLUSH))
    assert entry.ok


def test_dsm_trims_fully_covered_pages():
    sim, controller, ftl, nvme = make_nvme()
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(PAGE, 1, dtype=np.uint8))
    run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.WRITE, slba=0, block_count=bpp, prp=0))
    assert ftl.map.lookup(0) is not None
    entry = run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.DSM, slba=0, block_count=bpp))
    assert entry.ok
    assert ftl.map.lookup(0) is None


def test_queue_depth_enforced():
    sim, controller, ftl, nvme = make_nvme(depth=2)
    nvme.submit(NvmeCommand(NvmeOpcode.FLUSH))
    nvme.submit(NvmeCommand(NvmeOpcode.FLUSH))
    with pytest.raises(QueueSaturatedError):
        nvme.submit(NvmeCommand(NvmeOpcode.FLUSH))
    sim.run_process(nvme.drain())
    assert nvme.free_slots == 2


def test_drain_waits_for_all():
    sim, controller, ftl, nvme = make_nvme()
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(PAGE, 3, dtype=np.uint8))
    for i in range(4):
        nvme.submit(NvmeCommand(NvmeOpcode.WRITE, slba=i * bpp,
                                block_count=bpp, prp=0))
    sim.run_process(nvme.drain())
    assert len(nvme.completions) == 4
    assert all(c.ok for c in nvme.completions)


def test_buffers_are_never_reused_in_flight():
    # Sixteen concurrent full-page writes at depth 16: every command
    # holds its own page buffer until it completes, so no write can
    # program another command's data.
    sim, controller, ftl, nvme = make_nvme(depth=16)
    bpp = nvme.blocks_per_page
    host_in, host_out = 1 << 20, 2 << 20
    for i in range(16):
        controller.dram.write(host_in + i * PAGE,
                              np.full(PAGE, i + 1, dtype=np.uint8))
        nvme.submit(NvmeCommand(NvmeOpcode.WRITE, slba=i * bpp,
                                block_count=bpp, prp=host_in + i * PAGE))
    assert nvme.free_slots == 0
    sim.run_process(nvme.drain())
    for i in range(16):
        nvme.submit(NvmeCommand(NvmeOpcode.READ, slba=i * bpp,
                                block_count=bpp, prp=host_out + i * PAGE))
    sim.run_process(nvme.drain())
    assert all(c.ok for c in nvme.completions)
    for i in range(16):
        data = controller.dram.read(host_out + i * PAGE, PAGE)
        assert (data == i + 1).all(), f"LPN {i} read back another command's data"


def test_flush_is_a_durability_barrier():
    from repro.ftl.persist import REC_BIND
    from tests.test_persist import make_persistent_ftl

    sim, controller, ftl = make_persistent_ftl()
    nvme = NvmeController(sim, ScaleEngine(sim, ftl, queue_depth=4),
                          block_size=BLOCK)
    controller.dram.write(0, np.full(PAGE, 7, dtype=np.uint8))
    assert run_cmd(sim, nvme, NvmeCommand(
        NvmeOpcode.WRITE, slba=0, block_count=nvme.blocks_per_page)).ok
    assert ftl.persist.durable_journal == []    # the bind is only buffered
    assert run_cmd(sim, nvme, NvmeCommand(NvmeOpcode.FLUSH)).ok
    assert [rec[:2] for rec in ftl.persist.durable_journal] == [[REC_BIND, 0]]
    assert ftl.persist._buffer == []


# --- reliable reader -------------------------------------------------------


def make_reliable(retry_penalty=0.0, optimal_level=0):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=True, seed=9),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig(
            base_rber=0.0, wear_rber_per_kcycle=0.0,
            retention_rber_per_hour=0.0, retry_penalty_per_step=retry_penalty,
        )
        lun.array.block(2).optimal_retry_level = optimal_level
    ecc = BchEngine(BchConfig(codeword_bytes=256, t=4))
    reader = ReliableReader(controller, ecc, max_retry_levels=6)
    return sim, controller, reader


def program(controller, lun, block, page):
    data = (np.arange(TEST_PROFILE.geometry.full_page_size) % 239).astype(np.uint8)
    controller.dram.write(0, data)
    controller.run_to_completion(controller.program_page(lun, block, page, 0))
    return data


def test_clean_read_path():
    sim, controller, reader = make_reliable()
    data = program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.CLEAN
    np.testing.assert_array_equal(result.data, data)
    assert reader.stats.clean == 1


def test_retry_path_recovers():
    sim, controller, reader = make_reliable(retry_penalty=3e-3, optimal_level=3)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.RETRIED
    assert result.retry_level == 3
    assert reader.stats.retried == 1


def test_replica_path_recovers():
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)          # primary: hopeless at any level
    # Replica on LUN 1 with a clean error model.
    controller.luns[1].array.error_model.config = ErrorModelConfig.noiseless()
    data = program(controller, 1, 2, 0)
    reader.register_replica((0, 2, 0), (1, 2, 0))
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.REPLICA
    np.testing.assert_array_equal(result.data, data)


def test_uncorrectable_when_everything_fails():
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.UNCORRECTABLE
    assert result.data is None
    assert reader.stats.uncorrectable == 1
    assert "lost 1" in reader.describe()


def test_uncorrectable_counts_and_restores_retry_register():
    # No replica registered, every retry level hopeless: the full sweep
    # must run, every counter must land on the uncorrectable column,
    # and the vendor retry register must be back at the default level.
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.UNCORRECTABLE
    assert reader.stats.reads == 1
    assert reader.stats.clean == 0
    assert reader.stats.retried == 0
    assert reader.stats.replica == 0
    assert reader.stats.uncorrectable == 1
    # The failed sweep swept levels 1..max on LUN 0; the op program
    # restores the SET FEATURES retry register before returning, so a
    # later read is not silently biased by the last-tried voltage.
    assert controller.luns[0].features.read_retry_level == 0


def test_stats_accumulate_latency_ordering():
    sim, controller, reader = make_reliable(retry_penalty=3e-3, optimal_level=2)
    program(controller, 0, 2, 0)
    program(controller, 0, 2, 1)
    first = sim.run_process(reader.read(0, 2, 0, 100_000))   # retried
    clean_reader_sim, c2, r2 = make_reliable()
    program(c2, 0, 2, 0)
    second = clean_reader_sim.run_process(r2.read(0, 2, 0, 100_000))  # clean
    assert first.latency_ns > second.latency_ns  # retries cost latency
