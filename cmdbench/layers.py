"""The traced run: per-layer host self time and per-layer counters.

Self time comes from a deterministic profiler (``cProfile``) enabled
around one episode's measured phase.  Each function's self time is
charged to the layer of the ``repro`` module that defines it; time in
the standard library, numpy and builtins is charged to the layer of its
caller (split by the caller edges' own time), and time in the
benchmark's own code to ``other``.

Counters are read from the program's public attributes before and after
the measured phase; DRAM bytes are counted by wrapping each controller's
``DramBuffer`` methods on the profiled episode only.  ``repro.obs.Tracer``
is deliberately not attached: it demotes every TLM op off the template
path, so the traced program would not be the program measured.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from pathlib import Path

import numpy as np

import bench

SRC = Path(bench.__file__).resolve().parent.parent / "src"
HERE = str(Path(__file__).resolve().parent)

# Module prefix -> layer; first match wins.
LAYERS = (
    ("repro.host.", "host"),
    ("repro.ftl.persist", "ftl.persist"),
    ("repro.ftl.", "ftl"),
    ("repro.core.fastops", "core.fastops"),
    ("repro.core.softenv.", "core.softenv"),
    ("repro.core.opir.", "core.opir"),
    ("repro.core.ops.", "core.opir"),
    ("repro.core.ufsm.", "core.ufsm"),
    ("repro.core.backend", "bus"),
    ("repro.core.executor", "bus"),
    ("repro.bus.", "bus"),
    ("repro.onfi.", "onfi"),
    ("repro.flash.", "flash"),
    ("repro.dram.", "dram"),
    ("repro.sim.", "sim"),
    ("repro.core.", "core.other"),
    ("repro.", "other"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))

# name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    **{f"{layer}.self_us_per_cmd": ("us", "lower") for layer in LAYER_NAMES},
    "sim.events_per_cmd": ("count", "lower"),
    "core.softenv.txns_per_cmd": ("count", "lower"),
    "core.softenv.cpu_busy_frac": ("ratio", "lower"),
    "core.opir.program_cache_hit_ratio": ("ratio", "higher"),
    "core.ufsm.encode_cache_hit_ratio": ("ratio", "higher"),
    "bus.segments_per_cmd": ("count", "lower"),
    "bus.utilization_mean": ("ratio", "higher"),
    "bus.utilization_max": ("ratio", "higher"),
    "flash.lun_busy_frac_mean": ("ratio", "higher"),
    "flash.array_ops_per_cmd": ("count", "lower"),
    "core.fastops.planned": ("count", "higher"),
    "core.fastops.templated_ratio": ("ratio", "higher"),
    "core.fastops.declined": ("count", "lower"),
    "core.fastops.tlm_elapsed_drift_pct": ("%", "lower"),
    "core.fastops.tlm_p50_drift_pct": ("%", "lower"),
    "core.fastops.tlm_p99_drift_pct": ("%", "lower"),
    "ftl.gc_runs": ("count", "lower"),
    "ftl.gc_page_moves_per_host_write": ("ratio", "lower"),
    "ftl.persist.checkpoints": ("count", "lower"),
    "ftl.persist.journal_pages_per_host_write": ("ratio", "lower"),
    "host.queue_wait_us_p50": ("us", "lower"),
    "host.queue_wait_us_p99": ("us", "lower"),
    "host.doorbells_per_cmd": ("count", "lower"),
    "dram.bytes_per_cmd": ("B", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.raw_host_us_per_cmd": ("us", "lower"),
    "trace.calibration_slice_ms": ("ms", "lower"),
}


def layer_of(module: str):
    for prefix, layer in LAYERS:
        if module.startswith(prefix):
            return layer
    return None


def _file_layer(filename: str):
    """Layer of a code file, ``other`` for the benchmark's own files,
    None for code that inherits its caller's layer."""
    path = os.path.abspath(filename)
    if path.startswith(HERE + os.sep):
        return "other"
    try:
        rel = Path(path).relative_to(SRC)
    except ValueError:
        return None
    module = ".".join(rel.with_suffix("").parts)
    return layer_of(module + ".")


def attribute(profile: cProfile.Profile) -> tuple[dict, pstats.Stats]:
    """Self seconds per layer from a finished profile."""
    stats = pstats.Stats(profile)
    table = stats.stats
    memo: dict = {}

    def weights(func) -> dict:
        if func in memo:
            return memo[func]
        layer = _file_layer(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # provisional: breaks caller cycles
        callers = table[func][4]
        edge_time = sum(edge[2] for edge in callers.values())
        edge_calls = sum(edge[1] for edge in callers.values())
        shares: dict = {}
        for caller, edge in callers.items():
            share = edge[2] / edge_time if edge_time else (
                edge[1] / edge_calls if edge_calls else 0.0)
            if share and caller in table:
                for layer, weight in weights(caller).items():
                    shares[layer] = shares.get(layer, 0.0) + share * weight
        memo[func] = shares or {"other": 1.0}
        return memo[func]

    seconds = {layer: 0.0 for layer in LAYER_NAMES}
    for func, (_, _, self_time, _, _) in table.items():
        for layer, weight in weights(func).items():
            seconds[layer] += self_time * weight
    return seconds, stats


def calls(stats: pstats.Stats, module_file: str, function: str) -> int:
    """Call count of ``function`` defined in ``repro/<module_file>``."""
    suffix = os.sep + os.path.join("repro", *module_file.split("/"))
    return sum(
        entry[1] for func, entry in stats.stats.items()
        if func[2] == function and func[0].endswith(suffix)
    )


# ----------------------------------------------------------------------
# Counters from public attributes
# ----------------------------------------------------------------------

def snapshot(built) -> dict:
    from repro.core.opir.registry import cache_stats

    controllers = built.controllers
    luns = [lun for c in controllers for lun in c.luns]
    fast = [c.fast_ops for c in controllers if c.fast_ops is not None]
    ftl = built.ftl
    return {
        "txns": sum(c.env.txns_dispatched for c in controllers),
        "cpu_busy_ns": np.array([c.cpu.busy_ns for c in controllers]),
        "segments": sum(c.channel.stats.segments for c in controllers),
        "bus_busy_ns": np.array([c.channel.stats.busy_ns
                                 for c in controllers]),
        "lun_busy_ns": np.array([lun.busy_ns_total for lun in luns]),
        "array_ops": sum(lun.array.reads + lun.array.programs
                         + lun.array.erases for lun in luns),
        "encode_hits": sum(c.ufsm.ca_writer.encode_cache_hits
                           for c in controllers),
        "encode_misses": sum(c.ufsm.ca_writer.encode_cache_misses
                             for c in controllers),
        "planned": sum(f.ops_planned for f in fast),
        "templated": sum(f.ops_templated for f in fast),
        "declined": sum(f.ops_declined for f in fast),
        "program_hits": cache_stats()["program_hits"],
        "program_misses": cache_stats()["program_misses"],
        "doorbells": built.engine.doorbells_rung,
        "host_writes": ftl.host_writes,
        "gc_runs": ftl.gc_runs,
        "gc_page_moves": ftl.gc_page_moves,
        "checkpoints": ftl.checkpoints_written,
        "journal_pages": ftl.journal_pages_written,
    }


def count_dram_bytes(built, tally: dict) -> None:
    """Wrap every controller's DRAM accessors to tally bytes moved."""
    for controller in built.controllers:
        dram = controller.dram
        read, write, view = dram.read, dram.write, dram.view

        def counted_read(address, nbytes, _read=read):
            tally["bytes"] += nbytes
            return _read(address, nbytes)

        def counted_write(address, data, _write=write):
            tally["bytes"] += len(data)
            return _write(address, data)

        def counted_view(address, nbytes, _view=view):
            tally["bytes"] += nbytes
            return _view(address, nbytes)

        dram.read, dram.write, dram.view = (counted_read, counted_write,
                                            counted_view)


def _ratio(part, whole) -> float:
    return float(part) / whole if whole else 0.0


def _drift(tlm: float, wave: float) -> float:
    return (tlm - wave) / wave * 100.0 if wave else 0.0


def profiled_episode(workload, inputs):
    """One episode under the profiler; returns (episode, layer seconds,
    call stats, counter deltas, DRAM bytes moved by the program)."""
    marks = {}
    tally = {"bytes": 0}

    def on_built(built):
        count_dram_bytes(built, tally)
        marks["before"] = snapshot(built)

    profile = cProfile.Profile()
    episode = bench.run_episode(workload, inputs, profiler=profile,
                                on_built=on_built)
    after = snapshot(episode.built)
    delta = {key: after[key] - marks["before"][key] for key in after}
    seconds, stats = attribute(profile)
    # The benchmark's own read-back copies are not program traffic.
    program_bytes = tally["bytes"] - len(episode.read_data) \
        * workload.page_size
    return episode, seconds, stats, delta, program_bytes


def per_layer_metrics(workload, episode, seconds, stats, delta,
                      dram_bytes: int, untraced: dict,
                      reference=None) -> dict:
    """Every per-layer metric of one profiled episode.

    ``untraced`` holds the medians of the run's untraced episodes: raw
    CPU us/cmd (no profiler, no calibration) and the calibration slice
    in ms.  ``reference`` is the same inputs replayed at waveform fidelity (for
    a TLM workload); a waveform workload is its own reference.
    """
    cmds = max(len(episode.completed), 1)
    elapsed = max(episode.elapsed_ns, 1)
    profiled_us = episode.cpu_s / cmds * 1e6
    waits = episode.queue_waits_ns() / 1000.0
    values = {
        f"{layer}.self_us_per_cmd": seconds[layer] / cmds * 1e6
        for layer in LAYER_NAMES
    }
    values.update({
        "sim.events_per_cmd": calls(stats, "sim/kernel.py", "schedule") / cmds,
        "core.softenv.txns_per_cmd": delta["txns"] / cmds,
        "core.softenv.cpu_busy_frac": float(np.mean(delta["cpu_busy_ns"]))
        / elapsed,
        "core.opir.program_cache_hit_ratio": _ratio(
            delta["program_hits"],
            delta["program_hits"] + delta["program_misses"]),
        "core.ufsm.encode_cache_hit_ratio": _ratio(
            delta["encode_hits"],
            delta["encode_hits"] + delta["encode_misses"]),
        "bus.segments_per_cmd": delta["segments"] / cmds,
        "bus.utilization_mean": float(np.mean(delta["bus_busy_ns"])) / elapsed,
        "bus.utilization_max": float(np.max(delta["bus_busy_ns"])) / elapsed,
        "flash.lun_busy_frac_mean": float(np.mean(delta["lun_busy_ns"]))
        / elapsed,
        "flash.array_ops_per_cmd": delta["array_ops"] / cmds,
        "core.fastops.planned": delta["planned"],
        "core.fastops.templated_ratio": _ratio(delta["templated"],
                                               delta["planned"]),
        "core.fastops.declined": delta["declined"],
        "ftl.gc_runs": delta["gc_runs"],
        "ftl.gc_page_moves_per_host_write": _ratio(delta["gc_page_moves"],
                                                   delta["host_writes"]),
        "ftl.persist.checkpoints": delta["checkpoints"],
        "ftl.persist.journal_pages_per_host_write": _ratio(
            delta["journal_pages"], delta["host_writes"]),
        "host.queue_wait_us_p50": float(np.percentile(waits, 50))
        if len(waits) else 0.0,
        "host.queue_wait_us_p99": float(np.percentile(waits, 99))
        if len(waits) else 0.0,
        "host.doorbells_per_cmd": delta["doorbells"] / cmds,
        "dram.bytes_per_cmd": dram_bytes / cmds,
        "trace.overhead_pct": _drift(profiled_us,
                                     untraced["raw_us_per_cmd"]),
        "trace.raw_host_us_per_cmd": untraced["raw_us_per_cmd"],
        "trace.calibration_slice_ms": untraced["slice_ms"],
    })
    drift = {"elapsed": 0.0, "p50": 0.0, "p99": 0.0}
    if reference is not None:
        lat, ref = episode.latencies_ns(), reference.latencies_ns()
        drift = {
            "elapsed": _drift(episode.elapsed_ns, reference.elapsed_ns),
            "p50": _drift(np.percentile(lat, 50), np.percentile(ref, 50)),
            "p99": _drift(np.percentile(lat, 99), np.percentile(ref, 99)),
        }
    values["core.fastops.tlm_elapsed_drift_pct"] = float(drift["elapsed"])
    values["core.fastops.tlm_p50_drift_pct"] = float(drift["p50"])
    values["core.fastops.tlm_p99_drift_pct"] = float(drift["p99"])
    return {name: values[name] for name in PER_LAYER}


def write_chrome_trace(episode, path: Path) -> None:
    """Simulated-time spans per command: host queue wait, then device
    service, as async slices sharing the command's ``cid``."""
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": f"cmdbench {episode.workload.name}"}}]
    for c in episode.completed:
        args = {"cid": c.cid, "lpn": c.lpn, "op": c.opcode.value,
                "channel": c.channel}
        for name, start, end in (("queue_wait", c.submitted_at, c.started_at),
                                 ("device_service", c.started_at,
                                  c.finished_at)):
            common = {"name": name, "cat": f"ch{c.channel}", "id": c.cid,
                      "pid": 1, "tid": c.channel}
            events.append({**common, "ph": "b", "ts": start / 1000.0,
                           "args": args})
            events.append({**common, "ph": "e", "ts": end / 1000.0})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": {"workload": episode.workload.name,
                                 "spec_hash": episode.workload.spec.spec_hash()}},
                  out, separators=(",", ":"))
