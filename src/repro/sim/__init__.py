"""Discrete-event simulation core: engine, deterministic RNG, tracing."""

from .engine import Engine
from .rng import RngStreams
from .trace import TraceRecorder, TraceEvent

__all__ = ["Engine", "RngStreams", "TraceRecorder", "TraceEvent"]
