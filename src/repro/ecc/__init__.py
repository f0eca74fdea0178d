"""Error-correction coding for the flash read/write path.

:class:`BchEngine` is a behavioural t-per-codeword BCH model for the
16 KiB page path.  Real BCH decoding is out of scope (and out of CPU
budget) for a timing-focused reproduction, so the engine counts true
bit errors against the pristine page (a simulation oracle, the same
device used by MQSim/FEMU-class simulators) and corrects when the
count is within the configured capability.  DESIGN.md documents the
substitution.
"""

from repro.ecc.bch import BchConfig, BchEngine, EccResult, count_bit_errors

__all__ = [
    "BchConfig",
    "BchEngine",
    "EccResult",
    "count_bit_errors",
]
