"""Plannability: may the TLM fast path compile an op-IR program to a
plan template?

A template runs single kernel events per transaction and ready-waits
instead of poll loops (:mod:`repro.core.fastops`).  A program is
plannable when it is straight-line — transactions, handle
declarations, polls, constant sleeps, a return, with no gang masks —
or a one-call wrapper with static arguments around such a program.
That is exactly what :mod:`repro.core.fastops` can template, so the
gate and the runner cannot disagree.  :func:`plan_check` is that gate
and :func:`plan_blockers` its explanatory mode (the OPV501 source);
both are a type walk, no µFSM emission.
"""

from __future__ import annotations

from repro.core.opir.nodes import (
    CallOp,
    DeclareHandle,
    EvalState,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SoftSleep,
    Txn,
    eval_expr,
)


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
