"""The die protocol: one declarative row per ONFI/vendor opcode.

Every consumer of the command set reads this table instead of keeping
its own copy of what an opcode means: the LUN model
(:mod:`repro.flash.lun`) interprets the rows concretely, the static
verifier (:mod:`repro.analysis.opver`) interprets the same rows
abstractly, the C/A writer pads the wait a row names, and the capture
checker (:mod:`repro.analysis.timing_check`) and the op linter
(:mod:`repro.analysis.op_lint`) derive their opcode sets from the
fields.  A new or vendor opcode is one ``CMD`` constant plus one row.

A row says, for one opcode:

* ``cls`` — its broad :class:`CommandClass` (what ``classify_opcode``
  returns);
* ``busy_ok`` — whether it may latch while the array is busy (R/B#
  low); anything else is a protocol violation there;
* ``addr`` — the address cycles that follow it, if any, and where the
  die stores them (:class:`AddrFormat`);
* ``effect`` — what the die does when it latches (:class:`Effect`):
  wait for the address, confirm an array operation, arm a data source,
  or a die-control command; ``queue`` marks the multi-plane queue
  cycle of a confirm (a short tDBSY busy, then the next plane);
* ``arms`` — the data source it arms (:class:`Arm`): at the latch for
  a command without address cycles, after the address phase otherwise,
  and after a busy window of a named kind and vendor timing attribute
  when the arm names one;
* ``wait`` — the category-2 wait the C/A writer owns after it, as a
  timing-set attribute (``"tWB"`` before R/B# drops, ``"tWHR"`` before
  a data-out turnaround) or None.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.onfi.commands import CMD, CommandClass


class LunState(enum.Enum):
    """The die's protocol state (the runtime LUN's ``state``)."""

    IDLE = "idle"
    AWAIT_ADDRESS = "await_address"
    AWAIT_CONFIRM = "await_confirm"
    ARRAY_BUSY = "array_busy"
    CACHE_BUSY = "cache_busy"
    SUSPENDED = "suspended"


class DataSource(enum.Enum):
    """What a data-out burst streams."""

    NONE = "none"
    STATUS = "status"
    REGISTER = "register"
    FEATURE = "feature"
    ID = "id"
    PARAM_PAGE = "param_page"


class BusyKind(enum.Enum):
    """The array or control operation behind an R/B#-low window."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    FEATURE = "feature"
    RESET = "reset"
    PARAM = "param"
    DUMMY = "dummy"


#: Busy kinds a program/erase suspend may interrupt.
SUSPENDABLE = frozenset({BusyKind.PROGRAM, BusyKind.ERASE})


class AddrFormat(enum.Enum):
    """The address cycles after a command and where the die keeps them."""

    FULL = "full"            # column + row: page reads and programs
    ROW = "row"              # row only: block erase
    COL = "col"              # column only: column changes
    ID = "id"                # one byte: ID / parameter-page area
    FEATURE = "feature"      # one byte: feature address
    DIE_SELECT = "select"    # enhanced-status die select; no state change


class Effect(enum.Enum):
    """What the die does when the opcode latches."""

    ADDRESS = "address"            # await the row's address cycles
    STATUS = "status"              # arm the status register; state kept
    ARM_COLUMN = "arm_column"      # E0h: register readable at the new column
    READ = "read"                  # page read confirm (tR)
    CACHE_READ = "cache_read"      # flip to the cache register, fetch next
    CACHE_READ_END = "cache_read_end"  # flip to the cache register, stop
    PROGRAM = "program"            # page program confirm (tPROG)
    CACHE_PROGRAM = "cache_program"  # program in the background (ARDY)
    ERASE = "erase"                # block erase confirm (tBERS)
    RESET = "reset"                # abort everything, busy for tRST
    SUSPEND = "suspend"            # pause a program/erase
    RESUME = "resume"              # continue the suspended operation
    PSLC_ENTER = "pslc_enter"      # vendor pseudo-SLC prefix on
    PSLC_EXIT = "pslc_exit"        # vendor pseudo-SLC prefix off
    UNSUPPORTED = "unsupported"    # not in the command set


#: Effects that drop R/B#: the confirm cycles and reset.
CONFIRMS = frozenset({
    Effect.READ, Effect.CACHE_READ, Effect.CACHE_READ_END, Effect.PROGRAM,
    Effect.CACHE_PROGRAM, Effect.ERASE, Effect.RESET,
})


@dataclass(frozen=True)
class Arm:
    """A data source an opcode arms, optionally after a busy window of
    ``busy`` kind lasting the vendor timing attribute ``busy_attr``."""

    source: DataSource
    busy: Optional[BusyKind] = None
    busy_attr: Optional[str] = None


@dataclass(frozen=True)
class OpcodeRow:
    """The protocol of one opcode (module docstring has the fields)."""

    opcode: int
    name: str
    cls: CommandClass
    effect: Effect
    busy_ok: bool = False
    addr: Optional[AddrFormat] = None
    queue: bool = False
    arms: Optional[Arm] = None
    mid_program: bool = False  # 85h: awaits the confirm only with a row
    wait: Optional[str] = None

    @property
    def confirms(self) -> bool:
        """True when the latch drops R/B# (a confirm cycle or reset)."""
        return self.effect in CONFIRMS


_NAMES = {value: name for name, value in vars(CMD).items()
          if not name.startswith("_") and isinstance(value, int)}


def _row(opcode: int, cls: CommandClass, effect: Effect,
         **fields) -> tuple[int, OpcodeRow]:
    return opcode, OpcodeRow(opcode, _NAMES[opcode], cls, effect, **fields)


_C = CommandClass
_E = Effect
_A = AddrFormat

#: The table: opcode byte -> row.
OPCODES: dict[int, OpcodeRow] = dict([
    # --- reads -----------------------------------------------------------
    _row(CMD.READ_1ST, _C.READ, _E.ADDRESS, addr=_A.FULL),
    _row(CMD.READ_2ND, _C.READ_CONFIRM, _E.READ, wait="tWB"),
    _row(CMD.MP_READ_2ND, _C.READ_CONFIRM, _E.READ, queue=True, wait="tWB"),
    _row(CMD.READ_CACHE_SEQ, _C.CACHE_READ_CONFIRM, _E.CACHE_READ,
         wait="tWB"),
    _row(CMD.READ_CACHE_END, _C.CACHE_READ_END, _E.CACHE_READ_END,
         wait="tWB"),
    _row(CMD.CHANGE_READ_COL_1ST, _C.CHANGE_READ_COLUMN, _E.ADDRESS,
         addr=_A.COL),
    _row(CMD.CHANGE_READ_COL_2ND, _C.CHANGE_READ_COLUMN, _E.ARM_COLUMN,
         arms=Arm(DataSource.REGISTER)),
    # Enhanced: a full address selects the plane whose register the
    # following bursts read from.
    _row(CMD.CHANGE_READ_COL_ENH_1ST, _C.CHANGE_READ_COLUMN, _E.ADDRESS,
         addr=_A.FULL),
    # --- status ----------------------------------------------------------
    _row(CMD.READ_STATUS, _C.STATUS, _E.STATUS, busy_ok=True,
         arms=Arm(DataSource.STATUS), wait="tWHR"),
    _row(CMD.READ_STATUS_ENHANCED, _C.STATUS, _E.STATUS, busy_ok=True,
         addr=_A.DIE_SELECT, arms=Arm(DataSource.STATUS), wait="tWHR"),
    # --- programs --------------------------------------------------------
    _row(CMD.PROGRAM_1ST, _C.PROGRAM, _E.ADDRESS, addr=_A.FULL),
    _row(CMD.PROGRAM_2ND, _C.PROGRAM_CONFIRM, _E.PROGRAM, wait="tWB"),
    _row(CMD.MP_PROGRAM_2ND, _C.PROGRAM_CONFIRM, _E.PROGRAM, queue=True,
         wait="tWB"),
    _row(CMD.CACHE_PROGRAM_2ND, _C.CACHE_PROGRAM_CONFIRM, _E.CACHE_PROGRAM,
         wait="tWB"),
    _row(CMD.CHANGE_WRITE_COL, _C.CHANGE_WRITE_COLUMN, _E.ADDRESS,
         addr=_A.COL, mid_program=True),
    # --- erase -----------------------------------------------------------
    _row(CMD.ERASE_1ST, _C.ERASE, _E.ADDRESS, addr=_A.ROW),
    _row(CMD.ERASE_2ND, _C.ERASE_CONFIRM, _E.ERASE, wait="tWB"),
    _row(CMD.MP_ERASE_2ND, _C.ERASE_CONFIRM, _E.ERASE, queue=True,
         wait="tWB"),
    # --- identification / configuration ----------------------------------
    _row(CMD.READ_ID, _C.IDENT, _E.ADDRESS, addr=_A.ID,
         arms=Arm(DataSource.ID), wait="tWHR"),
    _row(CMD.READ_PARAMETER_PAGE, _C.IDENT, _E.ADDRESS, addr=_A.ID,
         arms=Arm(DataSource.PARAM_PAGE, BusyKind.PARAM, "t_param_read_ns")),
    _row(CMD.READ_UNIQUE_ID, _C.IDENT, _E.ADDRESS, addr=_A.ID),
    _row(CMD.SET_FEATURES, _C.FEATURES, _E.ADDRESS, addr=_A.FEATURE),
    _row(CMD.GET_FEATURES, _C.FEATURES, _E.ADDRESS, addr=_A.FEATURE,
         arms=Arm(DataSource.FEATURE, BusyKind.FEATURE, "t_feat_ns")),
    _row(CMD.RESET, _C.RESET, _E.RESET, busy_ok=True, wait="tWB"),
    _row(CMD.SYNCHRONOUS_RESET, _C.RESET, _E.RESET, busy_ok=True,
         wait="tWB"),
    _row(CMD.RESET_LUN, _C.RESET, _E.RESET, busy_ok=True, wait="tWB"),
    # --- vendor-specific (modeled) ----------------------------------------
    _row(CMD.VENDOR_PSLC_ENTER, _C.VENDOR, _E.PSLC_ENTER),
    _row(CMD.VENDOR_PSLC_EXIT, _C.VENDOR, _E.PSLC_EXIT),
    _row(CMD.VENDOR_SUSPEND, _C.VENDOR, _E.SUSPEND, busy_ok=True),
    _row(CMD.VENDOR_RESUME, _C.VENDOR, _E.RESUME),
])

#: Opcodes that arm the status register (status polls).
STATUS_OPCODES = frozenset(
    op for op, row in OPCODES.items() if row.effect is Effect.STATUS)


def opcode_row(opcode: int) -> OpcodeRow:
    """The row for ``opcode``; an UNSUPPORTED row for unknown bytes."""
    row = OPCODES.get(opcode)
    if row is None:
        row = OpcodeRow(opcode, opcode_name(opcode), CommandClass.UNKNOWN,
                        Effect.UNSUPPORTED)
    return row


def classify_opcode(opcode: int) -> CommandClass:
    """Map a raw opcode byte to its behavioural class."""
    row = OPCODES.get(opcode)
    return row.cls if row is not None else CommandClass.UNKNOWN


def is_vendor_opcode(opcode: int) -> bool:
    return classify_opcode(opcode) is CommandClass.VENDOR


def opcode_name(opcode: int) -> str:
    """Human-readable opcode name, used by the logic analyzer."""
    row = OPCODES.get(opcode)
    return row.name if row is not None else f"0x{opcode:02X}"
