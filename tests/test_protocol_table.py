"""The ONFI protocol table (:mod:`repro.onfi.protocol`) and its readers.

The LUN model interprets the table concretely and the static verifier
(opver) interprets it abstractly.  These tests pin that the table is
complete, that the C/A writer's per-opcode waits did not move when they
became table fields, and that the two interpreters agree: for every row
latched in every die state, the LUN raises exactly when opver proves an
error-severity OPV101/OPV104.
"""

import dataclasses

import pytest

from repro.analysis.opver import verify_program
from repro.core.opir.nodes import LatchSeq, OpProgram, Txn
from repro.core.transaction import TxnKind
from repro.core.ufsm.base import UfsmBank
from repro.core.ufsm.ca_writer import addr, cmd
from repro.flash.lun import Lun, LunProtocolError
from repro.onfi.commands import CMD
from repro.onfi.datamodes import interface_by_name
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.onfi.protocol import OPCODES, opcode_row
from repro.onfi.timing import TimingSet
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

MODE = "NV-DDR2-200"
CMD_OPCODES = {value: name for name, value in vars(CMD).items()
               if not name.startswith("_") and isinstance(value, int)}
UNKNOWN_OPCODE = 0xB7


def test_every_cmd_constant_has_exactly_one_row():
    assert set(OPCODES) == set(CMD_OPCODES)
    for opcode, row in OPCODES.items():
        assert row.opcode == opcode
        assert row.name == CMD_OPCODES[opcode]


def test_unknown_opcode_row_is_unsupported():
    row = opcode_row(UNKNOWN_OPCODE)
    assert row.name == "0xB7"
    assert not row.busy_ok and row.addr is None and row.wait is None


def test_twb_is_owned_exactly_after_the_rows_that_drop_rb():
    for row in OPCODES.values():
        assert (row.wait == "tWB") == row.confirms, row.name


def test_row_timing_names_exist():
    timing_fields = {f.name for f in dataclasses.fields(TimingSet)}
    for row in OPCODES.values():
        assert row.wait is None or row.wait in timing_fields, row.name
        if row.arms is not None and row.arms.busy is not None:
            assert isinstance(
                getattr(TEST_PROFILE.timing, row.arms.busy_attr), int)


# ---------------------------------------------------------------------------
# C/A writer timing lock
# ---------------------------------------------------------------------------

#: ``ca_writer.emit([cmd(op)]).duration_ns`` per opcode, recorded before
#: the tWB/tWHR padding moved into the protocol table.  Both NV-DDR2
#: modes share these numbers.
_CA_DURATION_NS = {
    0x00: 50, 0x05: 50, 0x06: 50, 0x10: 150, 0x11: 150, 0x15: 150,
    0x30: 150, 0x31: 150, 0x32: 150, 0x3F: 150, 0x60: 50, 0x61: 50,
    0x70: 130, 0x78: 130, 0x80: 50, 0x85: 50, 0x90: 130, 0xA2: 50,
    0xA3: 50, 0xD0: 150, 0xD1: 150, 0xD2: 50, 0xE0: 50, 0xEC: 50,
    0xED: 50, 0xEE: 50, 0xEF: 50, 0xFA: 150, 0xFC: 150, 0xFF: 150,
    UNKNOWN_OPCODE: 50,
}


@pytest.mark.parametrize("mode", ["NV-DDR2-100", "NV-DDR2-200"])
def test_ca_writer_latch_duration_per_opcode_is_locked(mode):
    assert set(_CA_DURATION_NS) == set(CMD_OPCODES) | {UNKNOWN_OPCODE}
    writer = UfsmBank(interface_by_name(mode)).ca_writer
    measured = {op: writer.emit([cmd(op)]).duration_ns
                for op in _CA_DURATION_NS}
    assert measured == _CA_DURATION_NS


# ---------------------------------------------------------------------------
# Runtime LUN vs static verifier, over the whole table
# ---------------------------------------------------------------------------

_CODEC = AddressCodec(TEST_PROFILE.geometry)
_FULL = _CODEC.encode(PhysicalAddress(block=3, page=1))

#: Latch prefixes that put a fresh die in each state.
STATES = {
    "idle": (),
    "read-busy": (cmd(CMD.READ_1ST), addr(_FULL), cmd(CMD.READ_2ND)),
    "program-busy": (cmd(CMD.PROGRAM_1ST), addr(_FULL),
                     cmd(CMD.PROGRAM_2ND)),
    "awaiting-address": (cmd(CMD.READ_1ST),),
    "awaiting-confirm": (cmd(CMD.READ_1ST), addr(_FULL)),
    "suspended": (cmd(CMD.PROGRAM_1ST), addr(_FULL), cmd(CMD.PROGRAM_2ND),
                  cmd(CMD.VENDOR_SUSPEND)),
}

#: (opcode, state) pairs where the die raises but opver stays silent on
#: purpose, with the reason.
_CONSERVATIVE = {
    **{(CMD.VENDOR_SUSPEND, state): "opver treats a suspend with no "
       "known busy window as suspending a caller-owned program/erase "
       "(the composed preemptive-erase idiom)"
       for state in ("idle", "awaiting-address", "awaiting-confirm",
                     "suspended")},
    **{(CMD.VENDOR_RESUME, state): "opver cannot know whether the caller "
       "suspended an operation before this program started"
       for state in ("idle", "awaiting-address", "awaiting-confirm")},
    **{(op, "awaiting-confirm"): "the first tR never ran, so the page "
       "register is empty: opver proves that as OPV102 (SAN202 at run "
       "time), not as a sequencing error"
       for op in (CMD.READ_CACHE_SEQ, CMD.READ_CACHE_END)},
}

NO_VENDOR_EXTRAS = dataclasses.replace(
    TEST_PROFILE, name="no-extras", supports_pslc=False,
    supports_suspend=False)


def _lun_raises(vendor, prefix, opcode) -> bool:
    sim = Simulator()
    lun = Lun(sim, vendor, track_data=False)
    writer = UfsmBank(interface_by_name(MODE)).ca_writer

    def run(latches):
        for _offset, action in writer.emit(list(latches)).actions:
            lun._process(action)

    if prefix:
        run(prefix)  # must not raise: the state is reachable
    try:
        run((cmd(opcode),))
    except LunProtocolError:
        return True
    return False


def _opver_errors(vendor, prefix, opcode) -> set:
    nodes = [Txn(TxnKind.CMD_ADDR, (LatchSeq(tuple(prefix)),))] \
        if prefix else []
    nodes.append(Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(opcode),)),)))
    program = OpProgram("protocol_probe", tuple(nodes))
    findings = verify_program(program, vendor, mode=MODE, luns=1)
    last = f"nodes[{len(nodes) - 1}]"
    prefix_errors = {f.rule for f in findings if f.severity == "error"
                     and f.rule in ("OPV101", "OPV104")
                     and not f.where.startswith(last)}
    assert not prefix_errors
    return {f.rule for f in findings
            if f.severity == "error" and f.rule in ("OPV101", "OPV104")
            and f.where.startswith(last)}


# Every (vendor, state) pair, except the suspended state on a die with
# no suspend opcode, which no latch sequence reaches.
_CASES = [
    pytest.param(vendor, state, id=f"{state}-{vendor.name}")
    for vendor in (TEST_PROFILE, NO_VENDOR_EXTRAS)
    for state in sorted(STATES)
    if vendor.supports_suspend or state != "suspended"
]


@pytest.mark.parametrize("vendor,state", _CASES)
def test_lun_raises_exactly_when_opver_proves_a_protocol_error(vendor,
                                                               state):
    prefix = STATES[state]
    silent = set()
    for opcode in sorted(OPCODES) + [UNKNOWN_OPCODE]:
        raises = _lun_raises(vendor, prefix, opcode)
        flagged = bool(_opver_errors(vendor, prefix, opcode))
        if raises != flagged:
            assert raises and (opcode, state) in _CONSERVATIVE, \
                (opcode_row(opcode).name, state, raises, flagged)
            silent.add((opcode, state))
    if vendor is TEST_PROFILE:
        # The exception list stays exact: every listed pair disagrees.
        listed = {pair for pair in _CONSERVATIVE if pair[1] == state}
        assert silent == listed
