"""ONFI protocol/timing linter over logic-analyzer captures.

Controllers are validated on real rigs by staring at scope traces; the
simulated equivalent is automated.  Given a capture, the checker
verifies per-LUN ONFI sequencing and inter-event timing rules:

* a confirm command is followed by no non-status command until the LUN
  had time to raise R/B# (tWB respected before the next poll);
* a CHANGE READ COLUMN confirm is separated from the following data-out
  burst by at least tCCS;
* address latches immediately follow an address-bearing command;
* data-out bursts only occur after something armed a data source;
* a data-out burst directly following a command latch waits tWHR
  (WE# high to RE# low — the status-read turnaround);
* a multi-byte data-out burst after an R/B# ready edge waits tRR
  (captures taken with ``LogicAnalyzer(capture_rb=True)``);
* a command latch directly following a data-out burst waits tRHW
  (RE# high to WE# low — the data-to-command turnaround).

The checker runs over *decoded events*, so it validates any controller
on the channel — BABOL or the hardware baselines — which is how the
test suite proves all three emit legal ONFI.  Which opcodes confirm,
carry address cycles, or arm a data source comes from their rows in
:mod:`repro.onfi.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.logic_analyzer import AnalyzerEvent, LogicAnalyzer
from repro.onfi.protocol import OPCODES, Effect, opcode_name
from repro.onfi.timing import TimingSet


def _burst_bytes(event: AnalyzerEvent) -> int:
    """Byte count of a data event (detail is rendered as '<N>B')."""
    detail = event.detail
    if detail.endswith("B") and detail[:-1].isdigit():
        return int(detail[:-1])
    return 0


@dataclass(frozen=True)
class TimingViolation:
    """One detected protocol/timing problem."""

    time_ns: int
    lun_mask: int
    rule: str
    detail: str

    def describe(self) -> str:
        return f"t={self.time_ns}ns mask=0b{self.lun_mask:b} [{self.rule}] {self.detail}"

    def to_finding(self, component: str = ""):
        """This violation as a TCK-namespaced diagnostics Finding."""
        from repro.analysis.diagnostics import Finding

        rule_id = _RULE_IDS.get(self.rule, "TCK000")
        return Finding(
            rule=rule_id,
            severity="error",
            message=f"[{self.rule}] {self.detail}",
            component=component or f"lun_mask=0b{self.lun_mask:b}",
            time_ns=self.time_ns,
        )


#: Stable diagnostics rule ids for the checker's named rules.
_RULE_IDS = {
    "confirm-without-address": "TCK001",
    "tWB": "TCK002",
    "orphan-address": "TCK003",
    "unarmed-data-out": "TCK004",
    "tCCS": "TCK005",
    "tWHR": "TCK006",
    "tRR": "TCK007",
    "tRHW": "TCK008",
}


@dataclass
class _LunTrack:
    last_confirm_ns: Optional[int] = None
    last_ccol_confirm_ns: Optional[int] = None
    awaiting_address: Optional[int] = None  # opcode expecting address next
    data_armed: bool = False
    # Previous wire event (cmd/addr/data) for turnaround rules; R/B#
    # edges and idle waits do not count as wire activity.
    prev_kind: Optional[str] = None
    prev_time_ns: int = 0
    prev_end_ns: int = 0
    last_ready_ns: Optional[int] = None  # R/B# low->high edge, if captured


class TimingChecker:
    """Validate a capture against the ONFI rules above."""

    def __init__(self, timing: TimingSet, lun_count: int = 16):
        self.timing = timing
        self.lun_count = lun_count
        self.violations: list[TimingViolation] = []
        self._tracks = [_LunTrack() for _ in range(lun_count)]

    # -- entry points ------------------------------------------------------

    def check_analyzer(self, analyzer: LogicAnalyzer) -> list[TimingViolation]:
        return self.check_events(analyzer.events)

    def check_events(self, events: list[AnalyzerEvent]) -> list[TimingViolation]:
        # R/B# edge events are recorded when the pin toggles, while
        # segment events are recorded at transmit time with future
        # offsets — so a capture that includes both is not globally
        # time-ordered.  A stable sort restores the pin-level timeline
        # (and is a no-op for segment-only captures).
        for event in sorted(events, key=lambda e: e.time_ns):
            for lun in range(self.lun_count):
                if event.chip_mask >> lun & 1:
                    self._feed(lun, event)
        return self.violations

    # -- per-LUN state machine ------------------------------------------------

    def _flag(self, event: AnalyzerEvent, rule: str, detail: str) -> None:
        self.violations.append(
            TimingViolation(
                time_ns=event.time_ns, lun_mask=event.chip_mask,
                rule=rule, detail=detail,
            )
        )

    def _feed(self, lun: int, event: AnalyzerEvent) -> None:
        track = self._tracks[lun]
        if event.kind == "cmd":
            self._on_command(track, event)
        elif event.kind == "addr":
            self._on_address(track, event)
        elif event.kind == "data_out":
            self._on_data_out(track, event)
        elif event.kind == "data_in":
            track.awaiting_address = None
        elif event.kind == "rb":
            # R/B# edges inform tRR but are not wire activity: they must
            # not disturb the cmd/data adjacency the turnaround rules use.
            if event.detail == "ready":
                track.last_ready_ns = event.time_ns
            else:
                track.last_ready_ns = None
            return
        if event.kind in ("cmd", "addr", "data_out", "data_in"):
            track.prev_kind = event.kind
            track.prev_time_ns = event.time_ns
            track.prev_end_ns = event.end_ns

    def _on_command(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        opcode = event.opcode
        row = OPCODES.get(opcode) if opcode is not None else None

        # tRHW: after a data-out burst, WE# must not fall until the
        # RE#-to-WE# turnaround has elapsed.
        if (
            track.prev_kind == "data_out"
            and event.time_ns - track.prev_end_ns < self.timing.tRHW
        ):
            self._flag(
                event, "tRHW",
                f"{opcode_name(opcode) if opcode is not None else 'cmd'} "
                f"latched {event.time_ns - track.prev_end_ns}ns after data out "
                f"(tRHW={self.timing.tRHW}ns)",
            )

        if track.awaiting_address is not None and row is not None:
            expecting = track.awaiting_address
            # A second command before the address is legal only for
            # multi-latch preambles that embed vendor prefixes; an
            # address-bearing command chained straight into a confirm
            # without any address is not.
            if row.confirms:
                self._flag(
                    event, "confirm-without-address",
                    f"{opcode_name(opcode)} follows "
                    f"{opcode_name(expecting)} with no address latch",
                )
            track.awaiting_address = None

        if row is None:
            return
        # tWB: after a confirm, the controller must give the LUN tWB
        # before asking anything of it (status polls included).
        if (
            track.last_confirm_ns is not None
            and row.effect is Effect.STATUS
            and event.time_ns - track.last_confirm_ns < self.timing.tWB
        ):
            self._flag(
                event, "tWB",
                f"status poll {event.time_ns - track.last_confirm_ns}ns "
                f"after confirm (tWB={self.timing.tWB}ns)",
            )

        if row.addr is not None:
            track.awaiting_address = opcode
        if row.confirms:
            track.last_confirm_ns = event.time_ns
        if row.arms is not None:
            track.data_armed = True
        if row.effect is Effect.ARM_COLUMN:
            track.last_ccol_confirm_ns = event.time_ns

    def _on_address(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        if track.awaiting_address is None:
            self._flag(
                event, "orphan-address",
                f"address latch [{event.detail}] with no pending command",
            )
        track.awaiting_address = None

    def _on_data_out(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        if not track.data_armed:
            self._flag(
                event, "unarmed-data-out",
                f"data burst {event.detail} with no arming command",
            )
        # tWHR: RE# must not fall until the WE#-to-RE# turnaround after
        # the command latch has elapsed.  Scoped to bursts *directly*
        # following a command latch (status/ID-style reads): an address
        # phase in between means the burst is paced by other rules.
        if (
            track.prev_kind == "cmd"
            and event.time_ns - track.prev_time_ns < self.timing.tWHR
        ):
            self._flag(
                event, "tWHR",
                f"data out {event.time_ns - track.prev_time_ns}ns after "
                f"command latch (tWHR={self.timing.tWHR}ns)",
            )
        # tRR: after R/B# rises, RE# must stay high for tRR before the
        # page data streams out.  Single-byte bursts are status reads,
        # which are paced by tWHR, not tRR.
        if track.last_ready_ns is not None and _burst_bytes(event) > 1:
            gap = event.time_ns - track.last_ready_ns
            if gap < self.timing.tRR:
                self._flag(
                    event, "tRR",
                    f"data out {gap}ns after R/B# ready "
                    f"(tRR={self.timing.tRR}ns)",
                )
            track.last_ready_ns = None
        # tCCS between a column-change confirm and the burst.
        if (
            track.last_ccol_confirm_ns is not None
            and event.time_ns - track.last_ccol_confirm_ns < self.timing.tCCS
        ):
            self._flag(
                event, "tCCS",
                f"burst {event.time_ns - track.last_ccol_confirm_ns}ns after "
                f"CHANGE READ COLUMN (tCCS={self.timing.tCCS}ns)",
            )
        track.last_ccol_confirm_ns = None

    # -- reporting --------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.clean:
            return "timing check: clean"
        lines = [f"timing check: {len(self.violations)} violation(s)"]
        lines.extend("  " + v.describe() for v in self.violations[:20])
        return "\n".join(lines)
