"""Self-tests of the command benchmark (``python -m pytest cmdbench -q``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

# Long enough for the mix to run GC and write checkpoints.
SHORT = {"wave-randread-8ch": 64, "wave-seqwrite-8ch": 32, "tlm-mixed-gc": 2000}


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "cmdbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path):
    out = _cli("--workload", name, "--seed", "3", "--seconds", "0",
               "--commands", str(SHORT[name]), "--trace", str(trace),
               "--trace-out", str(tmp_path / "t.json"))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= bench.SUBSTREAMS * SHORT[name]
    declared = layers.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(declared)
    for metric, (unit, _) in declared.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], float)
    if trace:
        events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        assert sum(e.get("name") == "device_service" for e in events) \
            == 2 * SHORT[name]
        values = {k: m["value"] for k, m in result["metrics"].items()}
        fastops = [v for k, v in values.items()
                   if k.startswith("core.fastops.")]
        if name.startswith("wave-"):   # the bypass predictions
            assert fastops == [0.0] * len(fastops)
            assert values["ftl.gc_runs"] == 0
        else:
            assert values["core.fastops.templated_ratio"] == 1.0
            assert values["ftl.gc_runs"] > 0
            assert values["ftl.persist.checkpoints"] > 0


def test_mix_prefills_half_the_logical_span():
    mix = bench.WORKLOADS["tlm-mixed-gc"]
    assert mix.prefilled == mix.logical_pages // 2 == 704


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.PER_LAYER


def _short_episodes(name: str, count: int = 2):
    workload = bench.WORKLOADS[name].with_commands(SHORT[name])
    inputs = bench.generate(workload, 3)[0]
    return workload, inputs, [
        run.summarize(bench.run_episode(workload, inputs), inputs)
        for _ in range(count)
    ]


def test_digest_check_trips_on_a_perturbed_digest():
    workload, _, episodes = _short_episodes("wave-randread-8ch")
    digest = run.run_digest(episodes)
    good = {"digests": {workload.name: {"3": digest}}}
    assert run.check(workload, 3, episodes, True, good) == []
    bad = {"digests": {workload.name: {"3": "0" * len(digest)}}}
    assert any("digest" in p for p in run.check(workload, 3, episodes,
                                                True, bad))


def test_episodes_of_one_stream_must_agree():
    workload, _, episodes = _short_episodes("wave-randread-8ch")
    episodes[1] = dict(episodes[1], digest="0" * 16)
    assert any("disagree" in p for p in run.check(workload, 3, episodes,
                                                  False, {"digests": {}}))


def test_recorded_digests_cover_default_and_heldout_seeds():
    expected = run.load_expected()
    for name in bench.WORKLOADS:
        recorded = expected["digests"][name]
        assert str(expected["default_seed"]) in recorded
        assert str(expected["heldout_seed"]) in recorded


def test_cold_start_makes_episodes_identical():
    """Module-level caches are emptied per episode: the second episode
    misses the op-IR program cache exactly as often as the first."""
    from repro.core.opir.registry import cache_stats

    assert bench.cold_start() >= 2     # the program and resolve caches
    workload = bench.WORKLOADS["wave-randread-8ch"].with_commands(32)
    inputs = bench.generate(workload, 3)[0]
    deltas, digests = [], []
    for _ in range(2):
        before = cache_stats()
        digests.append(bench.run_episode(workload, inputs).digest())
        after = cache_stats()
        deltas.append({k: after[k] - before[k] for k in after})
    assert deltas[0] == deltas[1] and deltas[0]["program_misses"] > 0
    assert digests[0] == digests[1]


def test_injected_power_cut_counts_as_failed_not_a_crash():
    from repro.faults import FaultCampaign, FaultSpec

    workload = bench.WORKLOADS["tlm-mixed-gc"].with_commands(300)
    inputs = bench.generate(workload, 3)[0]
    clean = bench.run_episode(workload, inputs)
    campaign = FaultCampaign(name="cut", seed=1, faults=[
        FaultSpec(kind="power_cut", after_ns=clean.elapsed_ns // 2)])
    cut = bench.run_episode(workload, inputs, campaign=campaign)
    assert cut.error.startswith("PowerLossError")
    summary = run.summarize(cut, inputs)
    assert 0 < summary["failed"] < summary["attempted"]
    assert summary["failed"] == summary["attempted"] - len(cut.completed)
    assert summary["problems"] == []     # an abort is a failure, not wrong data
    ok_frac = run.end_to_end(workload, [summary])["ok_frac"]["value"]
    assert ok_frac == 1 - summary["failed"] / summary["attempted"] < 1


def test_wrong_read_data_counts_as_failed():
    workload = bench.WORKLOADS["tlm-mixed-gc"].with_commands(300)
    inputs = bench.generate(workload, 3)[0]
    episode = bench.run_episode(workload, inputs)
    assert episode.read_data and episode.failed(inputs) == 0
    index = next(iter(episode.read_data))
    episode.read_data[index] = episode.read_data[index] ^ 1
    assert episode.failed(inputs) == 1
    assert any("wrong data" in p for p in episode.problems(inputs))


def test_layer_attribution_covers_the_whole_profile():
    workload = bench.WORKLOADS["wave-randread-8ch"].with_commands(32)
    inputs = bench.generate(workload, 3)[0]
    _, seconds, stats, _, _ = layers.profiled_episode(workload, inputs)
    assert sum(seconds.values()) == pytest.approx(stats.total_tt, rel=1e-6)
    assert seconds["sim"] > 0 and seconds["core.fastops"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "cmdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "tlm-mixed-gc", "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
