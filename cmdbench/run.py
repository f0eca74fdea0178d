"""Host CPU per simulated command: the repository benchmark.

Run from the repository root::

    python3 cmdbench/run.py --workload wave-randread-8ch --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats cold episodes of the workload for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` does the same, then
profiles one more episode and prints the per-layer metrics (and writes a
Chrome trace of simulated per-command spans under ``.cmdbench/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> (unit, better) of every end-to-end metric, in report order.
END_TO_END = {
    "host_us_per_cmd": ("us", "lower"),
    "host_us_per_cmd_p90": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_iops": ("cmd/sim-s", "higher"),
    "sim_p50_latency_us": ("sim-us", "lower"),
    "sim_p99_latency_us": ("sim-us", "lower"),
    "sim_write_amplification": ("ratio", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# Extra stack builds per run, beyond one per episode, for setup_s.
SETUP_SAMPLES = 15


def _load_program():
    """Import the program from this checkout's ``src`` (never from an
    installed copy); exits non-zero when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"cmdbench: no program at {SRC / 'repro'}; run from a "
                 f"full checkout of the repository")
    # NumPy asks the kernel for transparent huge pages on large arrays
    # (the 64 MiB DRAM buffers); whether it gets them depends on the
    # host's memory, and peak RSS then jumps by ~13 MB in some runs.
    # Count touched pages only.  Read once, when numpy is imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"cmdbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def load_expected() -> dict:
    with open(HERE / "expected.json") as handle:
        return json.load(handle)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def summarize(episode, inputs, substream: int = 0) -> dict:
    """The numbers a run keeps from one episode (the stack is dropped)."""
    completed = len(episode.completed)
    ftl = episode.ftl_counters()
    return {
        "substream": substream,
        "setup_s": episode.setup_s,
        "host_us_per_cmd": episode.host_s / max(completed, 1) * 1e6,
        "raw_us_per_cmd": episode.cpu_s / max(completed, 1) * 1e6,
        "slice_ms": statistics.median(episode.slices) * 1e3,
        "window_us": episode.window_us,
        "digest": episode.digest(),
        "problems": episode.problems(inputs),
        "error": episode.error,
        "attempted": episode.attempted,
        "failed": episode.failed(inputs),
        "read_holds": episode.read_holds,
        "latencies_ns": episode.latencies_ns(),
        "elapsed_ns": episode.elapsed_ns,
        "host_writes": ftl["host_writes"],
        "gc_page_moves": ftl["gc_page_moves"],
    }


def timed_episodes(workload, streams: list, seconds: float) -> list:
    """Cold episodes, back to back, cycling through the input streams,
    until ``seconds`` of wall time and at least one episode per stream."""
    import bench

    episodes = []
    start = time.perf_counter()
    while len(episodes) < len(streams) \
            or time.perf_counter() - start < seconds:
        k = len(episodes) % len(streams)
        # No reference to the episode survives, so its stack is freed
        # before the next one is built.
        episodes.append(summarize(bench.run_episode(workload, streams[k]),
                                  streams[k], k))
    return episodes


def run_digest(episodes: list) -> str:
    """One digest for the run: the outcome digests of its streams."""
    firsts = {}
    for episode in episodes:
        firsts.setdefault(episode["substream"], episode["digest"])
    joined = ",".join(firsts[k] for k in sorted(firsts))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def check(workload, seed: int, episodes: list, full_length: bool,
          expected: dict) -> list:
    """Run-level correctness problems (empty = correct)."""
    problems = sorted({p for episode in episodes for p in episode["problems"]})
    by_stream: dict = {}
    for episode in episodes:
        by_stream.setdefault(episode["substream"], set()).add(
            episode["digest"])
    for k, digests in sorted(by_stream.items()):
        if len(digests) > 1:
            problems.append(f"stream {k}: episodes disagree on the outcome "
                            f"{sorted(digests)}")
    recorded = expected["digests"].get(workload.name, {}).get(str(seed))
    digest = run_digest(episodes)
    if full_length and recorded and recorded != digest:
        problems.append(f"outcome digest {digest} != recorded {recorded}")
    return problems


def _per_stream_median(episodes: list, value) -> float:
    """Median over each stream's episodes, then mean over the streams,
    so the mix of streams never depends on how many episodes fit."""
    by_stream: dict = {}
    for episode in episodes:
        by_stream.setdefault(episode["substream"], []).append(value(episode))
    return statistics.fmean(statistics.median(v) for v in by_stream.values())


def _setup_median(workload, episodes) -> float:
    from repro.config.build import build_experiment

    import bench

    samples = [episode["setup_s"] for episode in episodes]
    for _ in range(SETUP_SAMPLES):
        bench.cold_start()
        before = bench.calibration_slice()
        t0 = time.process_time()
        build_experiment(workload.spec, auto_dram=True)
        cpu = time.process_time() - t0
        after = bench.calibration_slice()
        samples.append(bench.normalized(cpu, (before + after) / 2))
    return statistics.median(samples)


def end_to_end(workload, episodes: list) -> dict:
    import numpy as np

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    # Simulated metrics pool the first episode of every stream.
    streams = {}
    for episode in episodes:
        streams.setdefault(episode["substream"], episode)
    firsts = list(streams.values())
    latencies = np.concatenate([e["latencies_ns"] for e in firsts])
    elapsed = sum(e["elapsed_ns"] for e in firsts)
    writes = sum(e["host_writes"] for e in firsts)
    moves = sum(e["gc_page_moves"] for e in firsts)

    def p90(episode):
        windows = episode["window_us"]
        return float(np.percentile(windows, 90)) if windows \
            else episode["host_us_per_cmd"]

    values = {
        "host_us_per_cmd": _per_stream_median(
            episodes, lambda e: e["host_us_per_cmd"]),
        "host_us_per_cmd_p90": _per_stream_median(episodes, p90),
        "setup_s": _setup_median(workload, episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_iops": len(latencies) / elapsed * 1e9 if elapsed else 0.0,
        "sim_p50_latency_us": float(np.percentile(latencies, 50)) / 1000
        if len(latencies) else 0.0,
        "sim_p99_latency_us": float(np.percentile(latencies, 99)) / 1000
        if len(latencies) else 0.0,
        "sim_write_amplification": (writes + moves) / writes if writes
        else 1.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return {name: _metric(values[name], unit)
            for name, (unit, _) in END_TO_END.items()}


def traced(workload, streams: list, episodes: list,
           trace_out: Path) -> tuple[dict, list]:
    """Per-layer metrics from one profiled episode of stream 0 (plus,
    for a TLM workload, a waveform replay of the same inputs)."""
    import bench
    import layers

    inputs = streams[0]
    stream0 = [e for e in episodes if e["substream"] == 0]
    untraced = {key: statistics.median(e[key] for e in stream0)
                for key in ("raw_us_per_cmd", "slice_ms")}
    episode, seconds, stats, delta, dram_bytes = layers.profiled_episode(
        workload, inputs)
    problems = [f"profiled: {p}" for p in episode.problems(inputs)]
    if episode.digest() != episodes[0]["digest"]:
        problems.append("profiled episode changed the simulated outcome")
    reference = None
    if workload.spec.stack.fidelity != "waveform":
        reference = bench.run_episode(workload.with_fidelity("waveform"),
                                      inputs)
        problems += [f"waveform replay: {p}"
                     for p in reference.problems(inputs)]
        if reference.error:
            print(f"# ABORT waveform replay of stream 0: {reference.error}")
    values = layers.per_layer_metrics(workload, episode, seconds, stats,
                                      delta, dram_bytes, untraced,
                                      reference)
    layers.write_chrome_trace(episode, trace_out)
    metrics = {name: _metric(values[name], layers.PER_LAYER[name][0])
               for name in layers.PER_LAYER}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: expected.json's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--commands", type=int, default=None,
                        help="commands per episode (default: the "
                             "workload's; shorter runs skip the recorded "
                             "digest)")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    _load_program()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{sorted(bench.WORKLOADS)}")
    expected = load_expected()
    seed = expected["default_seed"] if args.seed is None else args.seed
    workload = bench.WORKLOADS[args.workload]
    full_length = args.commands in (None, workload.commands)
    if not full_length:
        workload = workload.with_commands(args.commands)

    # Every input is generated before the first set-up starts.
    streams = bench.generate(workload, seed)
    episodes = timed_episodes(workload, streams, args.seconds)
    problems = check(workload, seed, episodes, full_length, expected)
    if args.trace:
        trace_out = args.trace_out or (
            ROOT / ".cmdbench" / f"{workload.name}-seed{seed}.trace.json")
        metrics, more = traced(workload, streams, episodes, trace_out)
        problems += more
    else:
        metrics = end_to_end(workload, episodes)

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    print(f"# {workload.name} seed={seed} episodes={len(episodes)} "
          f"commands/episode={workload.commands} "
          f"digest={run_digest(episodes)} "
          f"read_holds={episodes[0]['read_holds']} "
          f"raw_us_per_cmd="
          f"{statistics.median(e['raw_us_per_cmd'] for e in episodes):.1f} "
          f"slice_ms={statistics.median(e['slice_ms'] for e in episodes):.3f} "
          f"spec_hash={workload.spec.spec_hash()}")
    for name, metric in metrics.items():
        print(f"#   {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    for k, error in sorted({(e["substream"], e["error"]) for e in episodes
                            if e["error"]}):
        print(f"# ABORT stream {k}: {error}")
    for problem in problems:
        print(f"# WRONG {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
