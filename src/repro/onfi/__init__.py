"""ONFI 5.x substrate: the vocabulary shared by controllers and packages.

This subpackage encodes the subset of the Open NAND Flash Interface
specification that the paper's controllers exercise: command opcodes
and the per-opcode die protocol table, timing-parameter sets per
data-interface mode, the pin/signal and waveform-segment model, address
geometry codecs, the status register, and the SET/GET FEATURES address
map.
"""

from repro.onfi.commands import CMD, CommandClass
from repro.onfi.protocol import (
    OPCODES,
    OpcodeRow,
    classify_opcode,
    is_vendor_opcode,
    opcode_name,
)
from repro.onfi.datamodes import (
    DataInterface,
    NVDDR2_100,
    NVDDR2_200,
    SDR_MODE0,
    interface_by_name,
)
from repro.onfi.geometry import AddressCodec, Geometry, PhysicalAddress
from repro.onfi.signals import (
    CommandLatch,
    AddressLatch,
    DataInAction,
    DataOutAction,
    Edge,
    IdleWait,
    Pin,
    SegmentKind,
    WaveformSegment,
)
from repro.onfi.status import StatusBits, StatusRegister
from repro.onfi.timing import TimingSet, timing_for_mode
from repro.onfi.features import FeatureAddress, FeatureStore

__all__ = [
    "CMD",
    "CommandClass",
    "classify_opcode",
    "is_vendor_opcode",
    "opcode_name",
    "OPCODES",
    "OpcodeRow",
    "DataInterface",
    "NVDDR2_100",
    "NVDDR2_200",
    "SDR_MODE0",
    "interface_by_name",
    "AddressCodec",
    "Geometry",
    "PhysicalAddress",
    "CommandLatch",
    "AddressLatch",
    "DataInAction",
    "DataOutAction",
    "Edge",
    "IdleWait",
    "Pin",
    "SegmentKind",
    "WaveformSegment",
    "StatusBits",
    "StatusRegister",
    "TimingSet",
    "timing_for_mode",
    "FeatureAddress",
    "FeatureStore",
]
