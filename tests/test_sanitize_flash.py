"""Injected-fault tests for the flash sanitizer (SAN2xx).

The LUN model raises :class:`LunProtocolError` on the hard violations;
these tests assert the sanitizer records a structured finding *before*
the raise, and that the chip-select rules (which the model is silent
about) fire from the channel tap.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.diagnostics import DiagnosticReport
from repro.bus import Channel
from repro.flash.lun import LunProtocolError, LunState
from repro.flash.package import build_channel_population
from repro.onfi.commands import CMD
from repro.onfi.geometry import PhysicalAddress
from repro.sanitize import attach_sanitizers
from repro.sim import Simulator

from tests.helpers import (
    TEST_PROFILE,
    cmd_addr_segment,
    data_out_segment,
    make_handle,
    row_address,
)

ADDR = PhysicalAddress(block=3, page=4)


def make_rig(lun_count=2):
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, lun_count, seed=1)
    channel = Channel(sim, luns, name="ch0")
    report = DiagnosticReport()
    rig = SimpleNamespace(sim=sim, channel=channel, luns=luns, dram=None)
    attach_sanitizers(rig, "flash", report)
    return sim, channel, report


def begin_erase(sim, lun):
    lun.deliver_segment(cmd_addr_segment(CMD.ERASE_1ST, row_address(ADDR)))
    sim.run()
    lun.deliver_segment(cmd_addr_segment(CMD.ERASE_2ND))
    sim.run(until=sim.now + 500)  # latch the confirm, stay inside tBERS
    assert lun.state is LunState.ARRAY_BUSY


def test_san201_opcode_latched_while_array_busy():
    sim, channel, report = make_rig()
    lun = channel.luns[0]
    begin_erase(sim, lun)
    with pytest.raises(LunProtocolError):
        lun._on_command(CMD.READ_1ST)
    (found,) = report.findings
    assert found.rule == "SAN201"
    assert found.component == "lun/0"
    assert "erase" in found.message
    assert "poll READ STATUS" in found.hint


def test_san201_on_a_hung_die_says_rb_never_returns():
    from repro.faults import FaultCampaign, FaultInjector, FaultKind, FaultSpec

    sim, channel, report = make_rig()
    lun = channel.luns[0]
    campaign = FaultCampaign(name="hang", seed=1, faults=[
        FaultSpec(kind=FaultKind.DIE_HANG, lun=0, count=None)])
    FaultInjector(campaign).attach(SimpleNamespace(luns=[lun]))
    begin_erase(sim, lun)
    with pytest.raises(LunProtocolError):
        lun._on_command(CMD.READ_1ST)
    (found,) = report.findings
    assert found.rule == "SAN201"
    assert "erase operation holds R/B# low and never returns" in found.message
    assert "ns of array time left" not in found.message


def test_status_poll_while_busy_is_legal():
    sim, channel, report = make_rig()
    lun = channel.luns[0]
    begin_erase(sim, lun)
    lun._on_command(CMD.READ_STATUS)  # explicitly exempt from SAN201
    assert report.clean
    sim.run()  # let the erase complete


def test_san202_data_out_with_no_source_armed():
    sim, channel, report = make_rig()
    lun = channel.luns[0]
    with pytest.raises(LunProtocolError):
        lun._produce_data(4)
    (found,) = report.findings
    assert found.rule == "SAN202"
    assert "no data source armed" in found.message


def test_san202_register_read_before_any_page_read():
    from repro.flash.lun import _DataSource

    sim, channel, report = make_rig()
    lun = channel.luns[0]
    lun._data_source = _DataSource.REGISTER
    with pytest.raises(LunProtocolError):
        lun._produce_data(16)
    (found,) = report.findings
    assert found.rule == "SAN202"
    assert "empty page register" in found.message


def test_san203_data_burst_selecting_two_dies():
    sim, channel, report = make_rig(lun_count=2)
    list(channel.acquire(owner="m"))
    next(channel.transmit(
        data_out_segment(16, make_handle(16), chip_mask=0b11)), None)
    (found,) = report.findings
    assert found.rule == "SAN203"
    assert "2 dies" in found.message


def test_san203_status_poll_addressed_to_deselected_die():
    sim, channel, report = make_rig(lun_count=2)
    list(channel.acquire(owner="m"))
    # chip_mask 0b100 selects nothing on a 2-LUN channel; the channel
    # itself also refuses to deliver it.
    with pytest.raises(ValueError, match="selects no LUN"):
        next(channel.transmit(
            cmd_addr_segment(CMD.READ_STATUS, chip_mask=0b100)), None)
    (found,) = report.findings
    assert found.rule == "SAN203"
    assert "DQ would float" in found.message


def test_broadcast_command_latch_is_legal():
    sim, channel, report = make_rig(lun_count=2)
    list(channel.acquire(owner="m"))
    # Non-data, non-status latches may broadcast (RESET to all dies).
    next(channel.transmit(
        cmd_addr_segment(CMD.RESET, chip_mask=0b11)), None)
    assert report.clean
