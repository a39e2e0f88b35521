"""Deterministic chaos engineering for the repro pipeline.

:mod:`repro.chaos.inject` holds the whole subsystem: declarative
:class:`FaultSpec` entries, the seed-keyed :class:`FaultInjector` whose
substreams mirror ``epoch_loss_key``, the shared fault/recovery accounting
(:class:`ChaosMonitor`), and the retry policy the sinks consume for their
writes (:class:`RetryPolicy`).
"""

from .inject import (
    CHECKPOINT_CORRUPTIONS,
    FAULT_KINDS,
    ChaosMonitor,
    ChaosSpecError,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    chaos_key,
    chaos_uniform,
    corrupt_checkpoint,
)

__all__ = [
    "CHECKPOINT_CORRUPTIONS",
    "ChaosMonitor",
    "ChaosSpecError",
    "chaos_key",
    "chaos_uniform",
    "corrupt_checkpoint",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
]
