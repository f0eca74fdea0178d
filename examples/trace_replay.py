"""Trace-driven evaluation: synthesize, persist, replay.

Generates a skewed mixed read/write trace (the 80/20 shape production
block traces exhibit), serializes it to the on-disk text format, loads
it back, and replays it open-loop against the full SSD stack —
reporting IOPS, latency percentiles, and the GC/write-amplification
behaviour the write stream provoked.

Run: ``python examples/trace_replay.py``
"""

from repro import BabolController, ControllerConfig, Simulator
from repro.flash import HYNIX_V7
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import ScaleEngine, Trace, replay_trace, synthesize_trace


def main() -> None:
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=HYNIX_V7, lun_count=8, runtime="rtos",
                         track_data=False),
    )
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=48 * 1024 * 1024),
    )
    engine = ScaleEngine(sim, ftl, queue_depth=16)
    working_set = ftl.logical_pages // 4
    ftl.prefill(working_set)

    trace = synthesize_trace(
        io_count=400,
        working_set_pages=working_set,
        read_fraction=0.7,
        hot_fraction=0.2,
        hot_access_fraction=0.8,
        mean_interarrival_ns=150_000,
        seed=11,
    )
    print(f"synthesized trace: {len(trace)} I/Os, "
          f"{trace.read_fraction:.0%} reads, "
          f"footprint {trace.footprint_pages()} pages")

    # Persist and reload (the interchange format a downstream user would
    # feed real traces through).
    text = trace.dumps()
    reloaded = Trace.loads(text)
    assert reloaded.records == trace.records
    print(f"serialized to {len(text.splitlines())} lines and reloaded\n")

    result = replay_trace(sim, engine, reloaded)
    print("replay results:")
    print(f"  I/Os completed : {result.ios} "
          f"({result.reads} reads / {result.writes} writes)")
    print(f"  elapsed        : {result.elapsed_ns / 1e6:.2f} ms of device time")
    print(f"  rate           : {result.iops:,.0f} IOPS")
    print(f"  latency        : mean {result.mean_latency_ns / 1000:.0f} us, "
          f"p99 {result.p99_latency_ns / 1000:.0f} us")
    print(f"  GC             : {ftl.gc_runs} runs, "
          f"WA {ftl.write_amplification:.2f}")


if __name__ == "__main__":
    main()
