"""Host command opcodes.

The page-granular command set every host feeder speaks to the queue
pairs of :mod:`repro.host.engine`.
"""

from __future__ import annotations

import enum


class HostOpcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    FLUSH = "flush"
