"""Tests for the host substrate: the engine as a one-FTL host queue,
the workload injector, and fio-style closed-loop jobs."""

import pytest

from repro.analysis.metrics import summarize_latencies
from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import ScaleCommand, ScaleEngine, ScaleJob, run_scale_workload
from repro.host.hic import HostOpcode
from repro.host.workload import measure_read_throughput
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


def make_stack(lun_count=2, iodepth=4, runtime="rtos"):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime=runtime, track_data=False, seed=7),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
    )
    engine = ScaleEngine(sim, ftl, queue_depth=iodepth)
    return sim, controller, ftl, engine


def run_commands(sim, engine, opcode, lpns):
    for lpn in lpns:
        engine.submit(ScaleCommand(opcode=opcode, lpn=lpn))
    sim.run_process(engine.drain())
    return engine.pairs[0].completions


# --- host queue over one FTL -----------------------------------------------


def test_hic_completes_reads_and_records_latency():
    sim, controller, ftl, engine = make_stack(iodepth=8)
    ftl.prefill(16)
    done = run_commands(sim, engine, HostOpcode.READ, range(8))
    assert len(done) == 8
    stats = summarize_latencies([c.latency_ns for c in done])
    assert stats.mean_ns > 0
    assert stats.p99_ns >= stats.mean_ns * 0.5


def test_hic_iodepth_bounds_concurrency():
    sim, controller, ftl, engine = make_stack(iodepth=1)
    ftl.prefill(8)
    run_scale_workload(sim, engine, ScaleJob(io_count=4))
    # With queue depth 1 commands are strictly serialized.
    done = engine.pairs[0].completions
    ends = [c.finished_at for c in done]
    assert ends == sorted(ends)
    starts = [c.started_at for c in done]
    assert all(s <= e for s, e in zip(starts, ends))
    assert all(s >= e for s, e in zip(starts[1:], ends))


def test_hic_write_then_read_path():
    sim, controller, ftl, engine = make_stack()
    run_commands(sim, engine, HostOpcode.WRITE, [3])
    run_commands(sim, engine, HostOpcode.READ, [3])
    assert ftl.host_reads == 1 and ftl.host_writes == 1


def test_hic_trim_path():
    sim, controller, ftl, engine = make_stack()
    ftl.prefill(4)
    run_commands(sim, engine, HostOpcode.TRIM, [2])
    assert ftl.map.lookup(2) is None


def test_hic_validates_iodepth():
    sim, controller, ftl, engine = make_stack()
    with pytest.raises(ValueError):
        ScaleEngine(sim, ftl, queue_depth=0)


# --- workload injector -------------------------------------------------------


def test_throughput_increases_with_luns():
    def bandwidth(lun_count):
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                             runtime="rtos", track_data=False),
        )
        result = measure_read_throughput(sim, controller, lun_count,
                                         reads_per_lun=6, warmup_per_lun=1)
        return result.throughput_mb_s

    assert bandwidth(4) > bandwidth(1) * 1.5


def test_throughput_result_fields_consistent():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=False),
    )
    result = measure_read_throughput(sim, controller, 2, reads_per_lun=4,
                                     warmup_per_lun=1)
    assert result.pages_read == 8
    assert result.payload_bytes == 8 * TEST_PROFILE.geometry.page_size
    assert result.mean_page_latency_us > 0


def test_throughput_utilization_bounded_and_warmup_excluded():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=False),
    )
    result = measure_read_throughput(sim, controller, 2, reads_per_lun=5,
                                     warmup_per_lun=2)
    # Warmup reads ran (simulated time advanced past them) but are not
    # part of the measured page count.
    assert result.pages_read == 10
    assert 0.0 <= result.channel_utilization <= 1.0
    assert result.elapsed_ns < sim.now


def test_throughput_zero_elapsed_degenerate():
    from repro.host.workload import ReadWorkloadResult

    result = ReadWorkloadResult(pages_read=0, payload_bytes=0,
                                elapsed_ns=0, channel_utilization=0.0)
    assert result.throughput_mb_s == 0.0
    assert result.mean_page_latency_us == 0.0


def test_throughput_deterministic_across_runs():
    def run():
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                             runtime="coroutine", track_data=False),
        )
        result = measure_read_throughput(sim, controller, 2, reads_per_lun=4,
                                         warmup_per_lun=1)
        return (result.elapsed_ns, result.pages_read,
                result.channel_utilization)

    assert run() == run()


# --- fio-style jobs ---------------------------------------------------------


def test_fio_sequential_and_random():
    sim, controller, ftl, engine = make_stack(lun_count=2, iodepth=4)
    ftl.prefill(64)
    seq = run_scale_workload(sim, engine,
                             ScaleJob(pattern="sequential", io_count=32))
    rand = run_scale_workload(sim, engine,
                              ScaleJob(pattern="random", io_count=32, seed=3))
    # Each result covers only its own job on the shared engine.
    assert seq.commands == 32 and rand.commands == 32
    assert seq.throughput_mb_s > 0 and rand.throughput_mb_s > 0
    assert seq.iops > 0
    assert seq.p99_latency_ns >= seq.mean_latency_ns * 0.5
    assert seq.doorbells + rand.doorbells == engine.doorbells_rung
