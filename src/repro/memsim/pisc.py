"""PISC (Processing-In-SCratchpad) microcode (Section V-B, Fig 9).

Each scratchpad is paired with a PISC: a microcoded ALU that executes
the algorithm's atomic update in-situ. The engine holds

- **microcode registers** storing the micro-op sequence for the
  current algorithm's update function (written at application start by
  the offload compiler's generated configuration code),
- a simple **ALU** supporting the :class:`~repro.ligra.atomics.AtomicOp`
  vocabulary (its fp adder dominates PISC area/power), and
- a **sequencer** that interprets offload commands: read the vertex's
  scratchpad line, run the ALU, write back, and update the active
  list.

This module models the microcode: a :class:`Microcode` is what an
OMEGA-style backend loads, and its :attr:`Microcode.cycles` is what
:func:`~repro.memsim.accounting.account_offload` charges each offloaded
op as *occupancy* on its home pad (``MemStats.pisc_occupancy``).
Offloads are fire-and-forget for the issuing core, so a pad becomes
the bottleneck only when its op stream exceeds the run length (the
timing model's ``pisc`` bound). The controller's same-vertex blocking
is not charged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import OffloadError
from repro.ligra.atomics import AtomicOp

__all__ = ["MicroOp", "Microcode", "MICRO_OP_CYCLES"]


class MicroOp(enum.Enum):
    """Micro-operations the PISC sequencer can issue."""

    SP_READ = "sp_read"          # read the vertex's scratchpad line
    ALU = "alu"                  # combine with the incoming operand
    GUARD = "guard"              # conditional check (CAS-style ops)
    SP_WRITE = "sp_write"        # write the result back
    SET_ACTIVE_DENSE = "set_active_dense"    # set the in-line active bit
    APPEND_ACTIVE_SPARSE = "append_active_sparse"  # push id via L1


#: Per-micro-op cycle costs (scratchpad latency dominates).
MICRO_OP_CYCLES: Dict[MicroOp, int] = {
    MicroOp.SP_READ: 1,
    MicroOp.ALU: 1,
    MicroOp.GUARD: 1,
    MicroOp.SP_WRITE: 1,
    MicroOp.SET_ACTIVE_DENSE: 1,
    MicroOp.APPEND_ACTIVE_SPARSE: 2,
}


@dataclass(frozen=True)
class Microcode:
    """A compiled update function: micro-op sequence plus its ALU op(s).

    Compound updates (Radii's "or & signed min") carry one ALU micro-op
    per operation; ``alu_op`` remains the primary op (the PISC's area
    and energy driver) and ``extra_alu_ops`` the rest.
    """

    name: str
    ops: Tuple[MicroOp, ...]
    alu_op: AtomicOp
    extra_alu_ops: Tuple[AtomicOp, ...] = ()

    def __post_init__(self) -> None:
        alu_steps = sum(1 for op in self.ops if op is MicroOp.ALU)
        if alu_steps and self.alu_op is None:
            raise OffloadError(f"microcode {self.name!r} uses ALU without an op")
        if alu_steps != (1 + len(self.extra_alu_ops)) and alu_steps > 0:
            raise OffloadError(
                f"microcode {self.name!r} has {alu_steps} ALU steps for"
                f" {1 + len(self.extra_alu_ops)} operations"
            )
        if not self.ops:
            raise OffloadError(f"microcode {self.name!r} is empty")

    @property
    def alu_ops(self) -> Tuple[AtomicOp, ...]:
        """All ALU operations, primary first."""
        return (self.alu_op, *self.extra_alu_ops)

    @property
    def cycles(self) -> int:
        """Total sequencer cycles per offloaded operation."""
        return sum(MICRO_OP_CYCLES[op] for op in self.ops)
