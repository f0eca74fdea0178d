"""Exactness pins for the host feeders.

Fig. 12 cells and a saturating trace replay must reproduce, to the
nanosecond, the simulated times recorded when these workloads ran
through a dedicated worker-pool host interface — before fio and replay
became feeders of the queue-depth engine.
"""

import copy

import pytest

from repro.cli.figures import FIG12_BASE, fig12_cell
from repro.config import ExperimentSpec
from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import ScaleEngine, replay_trace, synthesize_trace
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

FIG12_ELAPSED_NS = {
    ("sequential", "cosmos", 1): 7_758_805,
    ("sequential", "cosmos", 2): 6_348_375,
    ("sequential", "rtos", 1): 8_004_670,
    ("sequential", "rtos", 2): 9_340_680,
    ("random", "cosmos", 1): 7_758_805,
    ("random", "cosmos", 2): 8_281_760,
    ("random", "rtos", 1): 8_004_670,
    ("random", "rtos", 2): 10_459_445,
}


@pytest.mark.parametrize("pattern,kind,ways", sorted(FIG12_ELAPSED_NS))
def test_fig12_cell_elapsed_is_pinned(pattern, kind, ways):
    document = copy.deepcopy(FIG12_BASE)
    document["workload"]["pattern"] = pattern
    result = fig12_cell(ExperimentSpec.from_dict(document), kind, ways)
    assert result.commands == 24 * ways + 16
    assert result.elapsed_ns == FIG12_ELAPSED_NS[(pattern, kind, ways)]


def test_saturating_trace_replay_is_pinned():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=False, seed=7),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
    )
    ftl.prefill(32)
    engine = ScaleEngine(sim, ftl, queue_depth=4)
    # 5 us mean inter-arrival against QD 4: most arrivals wait in the
    # host backlog.
    trace = synthesize_trace(io_count=40, working_set_pages=32,
                             read_fraction=0.5, mean_interarrival_ns=5_000,
                             seed=6)
    result = replay_trace(sim, engine, trace)
    assert (result.ios, result.elapsed_ns, result.mean_latency_ns) == (
        40, 2_996_947, 1_429_183.85)
