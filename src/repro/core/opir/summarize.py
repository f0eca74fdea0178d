"""Closed-form timing summaries compiled from op-IR programs.

The waveform tier learns an operation's cost by simulating it; the TLM
tier can *compute* most of it ahead of time.  This module is the
compile pass that does so: given a built
:class:`~repro.core.opir.nodes.OpProgram` and the µFSM bank whose
data-mode timing will drive it, :func:`summarize_program` folds the
node tree into a :class:`ProgramTimingSummary` — total channel
occupancy in nanoseconds, nominal array-busy time, transferred bytes,
and the number of transactions and poll sites — without touching the
simulator.  Loops multiply, branches take the pessimistic arm (and
mark the summary inexact), ``CallOp`` recurses into the callee's
program exactly as the interpreter would.

The module answers a second question the TLM fast path needs: *may
this program be compiled to a plan template* (single kernel events per
transaction, ready-waits instead of poll loops)?  A program is
plannable when it is straight-line — transactions, handle
declarations, polls, constant sleeps, a return, with no gang masks —
or a one-call wrapper with static arguments around such a program.
That is exactly what :mod:`repro.core.fastops` can template, so the
gate and the runner cannot disagree.  :func:`plan_check` is that gate
and :func:`plan_blockers` its explanatory mode (the OPV501 source);
both are a type walk, no µFSM emission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    CallOp,
    DataXfer,
    DeclareHandle,
    EvalState,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SelectFirstReady,
    SoftSleep,
    TimerWait,
    Txn,
    eval_expr,
)
from repro.core.opir.compile import resolve_timer_ns
from repro.dram import DmaHandle
from repro.onfi.commands import CMD

#: Confirm opcodes that start an array-busy window, mapped to the
#: vendor timing attribute naming its nominal duration.  (The die adds
#: seeded jitter at run time; the summary reports the table value.)
_BUSY_STARTERS = {
    CMD.READ_2ND: "t_read_ns",
    CMD.READ_CACHE_SEQ: "t_read_ns",
    CMD.READ_CACHE_END: "t_read_ns",
    CMD.PROGRAM_2ND: "t_prog_ns",
    CMD.CACHE_PROGRAM_2ND: "t_prog_ns",
    CMD.MP_READ_2ND: "t_dbsy_ns",
    CMD.MP_PROGRAM_2ND: "t_dbsy_ns",
    CMD.MP_ERASE_2ND: "t_dbsy_ns",
    CMD.ERASE_2ND: "t_bers_ns",
    CMD.RESET: "t_reset_ns",
    CMD.SYNCHRONOUS_RESET: "t_reset_ns",
    CMD.RESET_LUN: "t_reset_ns",
}


@dataclass(frozen=True)
class ProgramTimingSummary:
    """What an op-program costs, folded to closed form.

    ``channel_ns`` counts every segment of every non-poll transaction;
    poll round trips are workload-dependent, so they are reported as a
    site count plus the per-poll occupancy (``poll_txn_ns``) instead of
    being baked into the total.  ``exact`` is False when the program
    branches on runtime state and the summary had to take a maximum.
    """

    name: str
    channel_ns: int      # occupancy of all non-poll transactions
    lun_busy_ns: int     # nominal array busy time the program triggers
    bytes_in: int        # host -> flash payload bytes
    bytes_out: int       # flash -> host payload bytes
    txn_count: int       # non-poll transactions
    poll_sites: int      # PollStatus sites (each >= 1 round trip)
    poll_txn_ns: int     # channel occupancy of one status round trip
    exact: bool = True

    def software_ns(self, costs, cpu) -> int:
        """Closed-form runtime overhead: the serialized cycles the
        software environment charges to push this program's
        transactions, assuming one round trip per poll site."""
        per_txn = cpu.cycles_to_ns(costs.serialized_txn_cycles())
        wakeup = cpu.cycles_to_ns(costs.wakeup)
        txns = self.txn_count + self.poll_sites
        return txns * per_txn + self.poll_sites * wakeup

    def describe(self) -> str:
        tag = "" if self.exact else " (pessimistic)"
        return (
            f"{self.name}: {self.txn_count} txns {self.channel_ns} ns on-bus, "
            f"{self.poll_sites} poll sites, array {self.lun_busy_ns} ns, "
            f"in {self.bytes_in} B out {self.bytes_out} B{tag}"
        )


class _Acc:
    __slots__ = ("channel_ns", "lun_busy_ns", "bytes_in", "bytes_out",
                 "txn_count", "poll_sites", "exact")

    def __init__(self):
        self.channel_ns = 0
        self.lun_busy_ns = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.txn_count = 0
        self.poll_sites = 0
        self.exact = True

    def add(self, other: "_Acc", times: int = 1) -> None:
        self.channel_ns += other.channel_ns * times
        self.lun_busy_ns += other.lun_busy_ns * times
        self.bytes_in += other.bytes_in * times
        self.bytes_out += other.bytes_out * times
        self.txn_count += other.txn_count * times
        self.poll_sites += other.poll_sites * times
        self.exact = self.exact and other.exact


def _segment_ns(bank, node, state: EvalState) -> tuple[int, int, int]:
    """(duration, bytes_in, bytes_out) of one segment node — computed
    through the real µFSM emitters so the interface's word clock and
    latch cycle times are authoritative, with a scratch DMA handle
    standing in for the real descriptor."""
    if isinstance(node, LatchSeq):
        segment = bank.ca_writer.emit(list(node.latches))
        return segment.duration_ns, 0, 0
    if isinstance(node, TimerWait):
        return resolve_timer_ns(bank, node), 0, 0
    if isinstance(node, DataXfer):
        scratch = DmaHandle(None, 0, node.nbytes)
        if node.direction == "out":
            segment = bank.data_reader.emit(node.nbytes, scratch)
            return segment.duration_ns, 0, node.nbytes
        segment = bank.data_writer.emit(
            node.nbytes, scratch, after_address=node.after_address
        )
        return segment.duration_ns, node.nbytes, 0
    raise TypeError(f"{type(node).__name__} is not a segment node")


def _busy_ns(timing, node: Txn) -> int:
    total = 0
    for seg in node.segments:
        if not isinstance(seg, LatchSeq):
            continue
        for latch in seg.latches:
            param = _BUSY_STARTERS.get(getattr(latch, "value", None))
            if param is not None:
                total += getattr(timing, param)
    return total


def _poll_txn_ns(bank) -> int:
    latch = bank.ca_writer.emit([_status_cmd()])
    data = bank.data_reader.emit(1, DmaHandle(None, 0, 1))
    return latch.duration_ns + data.duration_ns


def _status_cmd():
    from repro.core.ufsm.ca_writer import cmd

    return cmd(CMD.READ_STATUS)


def _static_kwargs(node: CallOp):
    """Evaluate a CallOp's kwargs against an empty state; None when any
    argument depends on runtime registers or hooks."""
    state = EvalState(None)
    kwargs = {}
    for name, value in node.kwargs:
        try:
            kwargs[name] = eval_expr(value, state)
        except Exception:
            return None
    return kwargs


def _summarize_nodes(nodes, bank, timing, vendor, acc: _Acc, depth: int) -> None:
    from repro.core.opir.registry import _cached_program, _resolved_builder

    for node in nodes:
        if isinstance(node, Txn):
            acc.txn_count += 1
            for seg in node.segments:
                ns, bin_, bout = _segment_ns(bank, seg, EvalState(None))
                acc.channel_ns += ns
                acc.bytes_in += bin_
                acc.bytes_out += bout
            acc.lun_busy_ns += _busy_ns(timing, node)
        elif isinstance(node, PollStatus):
            acc.poll_sites += 1
        elif isinstance(node, (SelectFirstReady, BreakIf)):
            acc.exact = False  # data-dependent control flow
        elif isinstance(node, Branch):
            arms = []
            for body in (node.then, node.orelse):
                arm = _Acc()
                _summarize_nodes(body, bank, timing, vendor, arm, depth)
                arms.append(arm)
            widest = max(arms, key=lambda a: (a.channel_ns, a.txn_count))
            acc.add(widest)
            if any(a.channel_ns != widest.channel_ns
                   or a.txn_count != widest.txn_count for a in arms):
                acc.exact = False
        elif isinstance(node, Loop):
            body = _Acc()
            _summarize_nodes(node.body, bank, timing, vendor, body, depth)
            acc.add(body, times=node.count)
        elif isinstance(node, CallOp):
            if depth >= 8:
                acc.exact = False
                continue
            kwargs = _static_kwargs(node)
            if kwargs is None:
                acc.exact = False
                continue
            builder = _resolved_builder(node.op, vendor)
            callee = _cached_program(builder, kwargs)
            _summarize_nodes(callee.nodes, bank, timing, vendor, acc, depth + 1)
        # DeclareHandle / SetReg / SoftSleep / Return cost no channel time.


def summarize_program(program: OpProgram, bank, timing,
                      vendor=None) -> ProgramTimingSummary:
    """Fold ``program`` into its closed-form timing summary."""
    acc = _Acc()
    _summarize_nodes(program.nodes, bank, timing, vendor, acc, depth=0)
    return ProgramTimingSummary(
        name=program.name,
        channel_ns=acc.channel_ns,
        lun_busy_ns=acc.lun_busy_ns,
        bytes_in=acc.bytes_in,
        bytes_out=acc.bytes_out,
        txn_count=acc.txn_count,
        poll_sites=acc.poll_sites,
        poll_txn_ns=_poll_txn_ns(bank),
        exact=acc.exact,
    )


def summarize_op(name: str, bank, timing, vendor=None,
                 **kwargs) -> ProgramTimingSummary:
    """Build the program for ``name`` and summarize it."""
    from repro.core.opir.registry import _cached_program, _resolved_builder

    program = _cached_program(_resolved_builder(name, vendor), kwargs)
    return summarize_program(program, bank, timing, vendor=vendor)


# ---------------------------------------------------------------------------
# Plannability: may the TLM fast path compile this program to a template?
# ---------------------------------------------------------------------------


def wrapper_callee(program: OpProgram):
    """(callee name, static kwargs) when ``program`` is a pure one-CallOp
    wrapper (``full_page_read`` -> ``read_page``), else None."""
    nodes = program.nodes
    if (len(nodes) == 2 and isinstance(nodes[0], CallOp)
            and isinstance(nodes[1], Return)
            and isinstance(nodes[1].expr, Reg)
            and nodes[1].expr.name == nodes[0].dest):
        kwargs = _static_kwargs(nodes[0])
        if kwargs is not None:
            return nodes[0].op, kwargs
    return None


def plan_check(program: OpProgram, vendor=None) -> bool:
    """True when the compiled-plan runner can template the program."""
    return not plan_blockers(program, vendor)


def plan_blockers(program: OpProgram,
                  vendor=None) -> list[tuple[str, str]]:
    """Every reason ``plan_check`` demotes this program, as
    ``(node path, reason)`` pairs — empty when the program is
    templatable: straight-line ``Txn`` / ``DeclareHandle`` /
    ``PollStatus`` / constant ``SoftSleep`` / ``Return`` nodes with no
    gang masks, or a one-``CallOp`` wrapper with static arguments
    around such a program.  The verifier surfaces the pairs as OPV501
    info findings."""
    from repro.core.opir.registry import _cached_program, _resolved_builder

    callee = wrapper_callee(program)
    if callee is None:
        return _straight_line_blockers(program.nodes, "nodes")
    name, kwargs = callee
    try:
        callee_program = _cached_program(_resolved_builder(name, vendor),
                                         kwargs)
    except Exception as exc:
        return [("nodes[0]", f"callee {name!r} failed to build: {exc}")]
    return _straight_line_blockers(callee_program.nodes, f"nodes[0].{name}")


def _straight_line_blockers(nodes, prefix: str) -> list[tuple[str, str]]:
    out = []
    for index, node in enumerate(nodes):
        path = f"{prefix}[{index}]"
        if isinstance(node, Txn):
            for seg_index, seg in enumerate(node.segments):
                # The template drives the op's single target die;
                # segments that re-mask or gang via Chip Control stay
                # on the exact path.
                if getattr(seg, "chip_mask", None) is not None \
                        or getattr(seg, "via_chip_control", False):
                    out.append((f"{path}.segments[{seg_index}]",
                                "segment re-targets dies "
                                "(chip_mask / Chip Control)"))
        elif isinstance(node, PollStatus):
            if node.chip_mask is not None:
                out.append((path, "gang-masked poll stays on the exact path"))
        elif isinstance(node, SoftSleep):
            if not isinstance(node.ns, int):
                out.append((path, "sleep length is computed at run time"))
        elif isinstance(node, Return):
            break
        elif not isinstance(node, DeclareHandle):
            out.append((path, f"{type(node).__name__} is not straight-line "
                              f"code the plan template can replay"))
    return out
