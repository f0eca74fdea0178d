"""Host-side substrate: the queue-depth engine every host feeder drives
(closed-loop jobs, trace replay, the NVMe command layer) and the
controller-level READ injector."""

from repro.host.engine import (
    ChannelQueuePair,
    QueueSaturatedError,
    ScaleCommand,
    ScaleEngine,
    ScaleJob,
    ScaleRunResult,
    run_scale_workload,
)
from repro.host.workload import ReadWorkloadResult, measure_read_throughput
from repro.host.trace import (
    ReplayResult,
    Trace,
    TraceRecord,
    replay_trace,
    synthesize_trace,
)

__all__ = [
    "ChannelQueuePair",
    "QueueSaturatedError",
    "ScaleCommand",
    "ScaleEngine",
    "ScaleJob",
    "ScaleRunResult",
    "run_scale_workload",
    "ReadWorkloadResult",
    "measure_read_throughput",
    "ReplayResult",
    "Trace",
    "TraceRecord",
    "replay_trace",
    "synthesize_trace",
]
