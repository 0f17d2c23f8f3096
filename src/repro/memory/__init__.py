"""Memory substrate: cache simulator, address mapping, memory pool."""

from .address import TensorStorage, traversal
from .cache import CacheStats, SetAssociativeCache
from .pool import (
    LivenessSchedule, MemoryPool, PoolEvent, PoolReport, is_materialized,
    liveness_schedule, simulate_pool,
)

__all__ = [
    "CacheStats", "LivenessSchedule", "MemoryPool", "PoolEvent", "PoolReport",
    "SetAssociativeCache", "TensorStorage", "is_materialized",
    "liveness_schedule", "simulate_pool", "traversal",
]
