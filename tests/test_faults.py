"""Tests for the fault-injection framework: plans, the injector hooks,
and the zero-overhead detach contract."""

import json

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.faults import (
    FaultCampaign,
    FaultInjector,
    FaultKind,
    FaultPlanError,
    FaultSpec,
    PowerLossError,
    RECOVERABLE_KINDS,
    default_campaign,
)
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

PAGE_BYTES = TEST_PROFILE.geometry.full_page_size


def make_controller(lun_count=2, track_data=False, seed=7,
                    fidelity="waveform"):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=track_data, seed=seed,
                         fidelity=fidelity),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return sim, controller


def campaign_of(*specs, seed=7):
    return FaultCampaign(name="test", seed=seed, faults=list(specs))


def program(controller, lun, block, page, dram_address=0):
    data = (np.arange(PAGE_BYTES) % 239).astype(np.uint8)
    controller.dram.write(dram_address, data)
    task = controller.program_page(lun, block, page, dram_address)
    return controller.run_to_completion(task), data


# --- plans ------------------------------------------------------------------


def test_campaign_json_roundtrip():
    campaign = default_campaign(seed=11)
    clone = FaultCampaign.from_json(campaign.to_json())
    assert clone.to_dict() == campaign.to_dict()
    assert clone.seed == 11
    assert clone.kinds() == set(FaultKind)


def test_spec_encoding_omits_defaults():
    spec = FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=1)
    assert spec.to_dict() == {"kind": "program_fail", "lun": 1}
    full = FaultSpec(kind=FaultKind.GROWN_BAD_BLOCK, lun=0, block=3,
                     pe_threshold=2, count=None)
    decoded = FaultSpec.from_dict(json.loads(json.dumps(full.to_dict())))
    assert decoded == full


def test_spec_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, count=0)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, probability=0.0)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, after_op=-1)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.GROWN_BAD_BLOCK)  # needs a block
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.TRANSFER_CORRUPT, direction="sideways")
    with pytest.raises(ValueError):
        FaultSpec(kind="no_such_fault")


def test_die_hang_is_the_only_unrecoverable_kind():
    assert set(FaultKind) - RECOVERABLE_KINDS == {FaultKind.DIE_HANG}


def test_campaign_load_raises_fault_plan_error_on_bad_json():
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        FaultCampaign.from_json("{nope")
    with pytest.raises(FaultPlanError, match="must be an object"):
        FaultCampaign.from_json("[1, 2]")


def test_campaign_load_names_the_missing_field():
    with pytest.raises(FaultPlanError, match="'name'"):
        FaultCampaign.from_dict({"seed": 3})
    with pytest.raises(FaultPlanError, match="'seed'"):
        FaultCampaign.from_dict({"name": "x"})
    with pytest.raises(FaultPlanError, match="seed must be an integer"):
        FaultCampaign.from_dict({"name": "x", "seed": "soon"})
    with pytest.raises(FaultPlanError, match="'faults' must be a list"):
        FaultCampaign.from_dict({"name": "x", "seed": 1, "faults": {}})


def test_spec_load_rejects_unknown_and_missing_fields():
    with pytest.raises(FaultPlanError, match="missing its 'kind'"):
        FaultSpec.from_dict({"lun": 0})
    with pytest.raises(FaultPlanError, match="unknown fault spec field"):
        FaultSpec.from_dict({"kind": "program_fail", "blast_radius": 9})
    with pytest.raises(FaultPlanError, match="must be an object"):
        FaultSpec.from_dict(["power_cut"])
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultSpec.from_dict({"kind": "emp_burst"})


def test_power_cut_spec_rejects_block_target():
    with pytest.raises(FaultPlanError, match="whole array"):
        FaultSpec(kind=FaultKind.POWER_CUT, block=3)
    # A LUN-less, block-less power cut is a valid spec and round-trips.
    spec = FaultSpec(kind=FaultKind.POWER_CUT, count=1)
    assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_default_campaign_includes_power_cut():
    campaign = default_campaign(seed=5)
    assert FaultKind.POWER_CUT in campaign.kinds()


def test_campaign_file_roundtrip_and_load_errors(tmp_path):
    path = tmp_path / "campaign.json"
    campaign = default_campaign(seed=9)
    campaign.dump(str(path))
    assert FaultCampaign.load(str(path)).to_dict() == campaign.to_dict()
    path.write_text('{"name": "broken", "seed": 1, "faults": [{"lun": 0}]}')
    with pytest.raises(FaultPlanError, match="missing its 'kind'"):
        FaultCampaign.load(str(path))


# --- injector hooks ---------------------------------------------------------


def test_program_fail_forces_fail_and_respects_count():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, count=1)))
    injector.attach(controller)
    ok1, _ = program(controller, 0, 1, 0)
    ok2, _ = program(controller, 0, 1, 1)
    assert ok1 is False          # injected FAIL
    assert ok2 is True           # count exhausted
    assert injector.fires_by_kind() == {"program_fail": 1}
    assert injector.records[0].lun == 0


def test_erase_fail_targets_one_lun():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.ERASE_FAIL, lun=1, count=1)))
    injector.attach(controller)
    ok0 = controller.run_to_completion(controller.erase_block(0, 2))
    ok1 = controller.run_to_completion(controller.erase_block(1, 2))
    assert ok0 is True           # wrong LUN: untouched
    assert ok1 is False


def test_grown_bad_block_arms_at_pe_threshold():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.GROWN_BAD_BLOCK, lun=0, block=3,
                  pe_threshold=1, count=None)))
    injector.attach(controller)
    first = controller.run_to_completion(controller.erase_block(0, 3))
    second = controller.run_to_completion(controller.erase_block(0, 3))
    assert first is True         # erase_count 0 < threshold: healthy
    assert second is False       # now past the threshold: fails forever
    assert injector.records[0].block == 3


def test_stuck_busy_stretch_slows_but_completes():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1, stretch=4.0)))
    injector.attach(controller)
    start = sim.now
    ok, _ = program(controller, 0, 1, 0)
    stretched_ns = sim.now - start
    assert ok is True
    assert injector.fires_by_kind() == {"stuck_busy": 1}
    # The nominal program takes ~tPROG; a 4x stretch dominates the op.
    assert stretched_ns > 3 * TEST_PROFILE.timing.t_prog_ns


def test_feature_drop_silently_ignores_set_features():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.FEATURE_DROP, lun=0, count=1)))
    injector.attach(controller)
    controller.run_to_completion(controller.set_features(0, 0x89, (3, 0, 0, 0)))
    readback = controller.run_to_completion(controller.get_features(0, 0x89))
    assert tuple(readback) == (0, 0, 0, 0)   # the write never landed
    # The fault is spent: the next SET FEATURES sticks.
    controller.run_to_completion(controller.set_features(0, 0x89, (5, 0, 0, 0)))
    readback = controller.run_to_completion(controller.get_features(0, 0x89))
    assert tuple(readback) == (5, 0, 0, 0)


def _transfer_corrupt_reads(fidelity):
    """(programmed, first read, second read) DRAM bytes under a one-shot
    read-burst corruption."""
    sim, controller = make_controller(track_data=True, fidelity=fidelity)
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.TRANSFER_CORRUPT, lun=0, count=1,
                  direction="out")))
    injector.attach(controller)
    ok, data = program(controller, 0, 1, 0)
    assert ok is True            # "out" direction: the program burst is safe
    controller.run_to_completion(controller.read_page(0, 1, 0, 100_000))
    garbled = controller.dram.read(100_000, PAGE_BYTES)
    controller.run_to_completion(controller.read_page(0, 1, 0, 100_000))
    clean = controller.dram.read(100_000, PAGE_BYTES)
    return data, garbled, clean


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_transfer_corrupt_garbles_read_data_only(fidelity):
    data, garbled, clean = _transfer_corrupt_reads(fidelity)
    assert not np.array_equal(garbled, data)
    # Second read is clean: the fault fired once.
    np.testing.assert_array_equal(clean, data)
    # The TLM plan path hands the fault hook the same bursts, so both
    # tiers garble the same bytes.
    np.testing.assert_array_equal(
        garbled, _transfer_corrupt_reads("waveform")[1])


def test_detach_restores_nullable_hooks():
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, count=None)))
    injector.attach(controller)
    assert controller.luns[0]._fault_hook is injector
    assert controller.channel._fault_hook is injector
    injector.detach()
    assert all(lun._fault_hook is None for lun in controller.luns)
    assert controller.channel._fault_hook is None
    ok, _ = program(controller, 0, 1, 0)
    assert ok is True            # unlimited fault armed, but detached
    assert injector.records == []


def test_detach_cancels_pending_timed_power_cut():
    cut_ns = TEST_PROFILE.timing.t_prog_ns // 2

    # Control: an attached timed cut kills the program mid-flight.
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.POWER_CUT, count=1, after_ns=cut_ns)))
    injector.attach(controller)
    with pytest.raises(PowerLossError):
        program(controller, 0, 1, 0)

    # Detached before the cut nanosecond: the kernel blackout event
    # armed at attach must be cancelled, not left to raise
    # PowerLossError into whatever runs on this simulator afterwards.
    sim, controller = make_controller()
    injector = FaultInjector(campaign_of(
        FaultSpec(kind=FaultKind.POWER_CUT, count=1, after_ns=cut_ns)))
    injector.attach(controller)
    injector.detach()
    ok, _ = program(controller, 0, 1, 0)
    assert ok is True
    assert injector.records == []


def test_probability_draws_are_seeded():
    def fired_ops(seed):
        sim, controller = make_controller(seed=3)
        injector = FaultInjector(FaultCampaign(
            name="p", seed=seed,
            faults=[FaultSpec(kind=FaultKind.PROGRAM_FAIL, probability=0.5,
                              count=None)],
        ))
        injector.attach(controller)
        for page in range(8):
            program(controller, 0, 1, page)
        return [r.time_ns for r in injector.records]

    assert fired_ops(21) == fired_ops(21)    # same seed: same fires
    assert fired_ops(21) != fired_ops(22)    # seed matters
