"""Recovery engines (fused / serial)."""

from repro.recovery.engines import (
    ENGINE_NAMES,
    EngineResult,
    FusedRecoveryEngine,
    RecoveryContext,
    RecoveryEngine,
    SerialRecoveryEngine,
    make_engine,
)

__all__ = [
    "ENGINE_NAMES",
    "EngineResult",
    "FusedRecoveryEngine",
    "RecoveryContext",
    "RecoveryEngine",
    "SerialRecoveryEngine",
    "make_engine",
]
