"""The tracer: one emit point, pluggable sinks, free when off.

Instrumented subsystems hold a :class:`Tracer` (defaulting to
:data:`NULL_TRACER`) and guard every event construction with
``tracer.enabled``::

    if self.tracer.enabled:
        self.tracer.emit(Fault(time=now, unit=page))

With the null tracer the guard is a single attribute test and no event
object is ever built — the overhead contract (disabled tracing costs
nothing measurable) rests on exactly this pattern, so instrumented
code must never emit unconditionally.
"""

from __future__ import annotations

from typing import Iterable

from repro.observe.events import Event
from repro.observe.sinks import Sink


class Tracer:
    """Fans emitted events out to every attached sink.

    >>> from repro.observe.events import Fault
    >>> from repro.observe.sinks import RingBufferSink
    >>> ring = RingBufferSink(8)
    >>> tracer = Tracer([ring])
    >>> tracer.emit(Fault(time=0, unit=3))
    >>> tracer.emitted, len(ring)
    (1, 1)
    """

    __slots__ = ("sinks", "enabled", "emitted")

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks: list[Sink] = list(sinks)
        self.enabled = True
        self.emitted = 0

    def emit(self, event: Event) -> None:
        """Deliver one event to every sink (in attachment order)."""
        if not self.enabled:
            return
        self.emitted += 1
        for sink in self.sinks:
            sink.accept(event)

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)

    def close(self) -> None:
        """Close every sink that supports closing."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, sinks={len(self.sinks)}, emitted={self.emitted})"


class _NullTracer(Tracer):
    """The disabled tracer: ``enabled`` is False and ``emit`` drops.

    A process-wide singleton (:data:`NULL_TRACER`) stands in wherever no
    tracer was supplied, so instrumented code never tests for ``None``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def emit(self, event: Event) -> None:   # pragma: no cover - guarded out
        pass

    def add_sink(self, sink: Sink) -> None:
        raise ValueError(
            "NULL_TRACER is the shared disabled tracer; build a Tracer(...) "
            "instead of attaching sinks to it"
        )


NULL_TRACER: Tracer = _NullTracer()
"""The shared no-op tracer; ``as_tracer(None)`` returns it."""


def as_tracer(tracer: Tracer | None) -> Tracer:
    """Normalize an optional tracer argument: ``None`` → :data:`NULL_TRACER`."""
    return NULL_TRACER if tracer is None else tracer


__all__ = ["NULL_TRACER", "Tracer", "as_tracer"]
