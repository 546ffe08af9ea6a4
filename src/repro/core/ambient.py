"""Shared plumbing for the ambient instruments (trace, metrics, audit, profiling).

* :class:`Ambient` — an install stack whose top is the active instrument.
  The bottom entry is the module's disabled object (``NULL_TRACER``,
  ``NULL_REGISTRY``, ...), so :meth:`Ambient.current` never fails and
  components capture it once at construction.  A stack rather than a
  single slot lets tests nest ``tracing()``/``auditing()`` blocks.
* :class:`RingBuffer` — the bounded record store behind ``Tracer`` and
  ``Auditor``: O(1) append, O(1) overwrite once full, oldest evicted first.
* :func:`freeze_args` — record attributes in a canonical order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

__all__ = ["Ambient", "RingBuffer", "freeze_args"]


def freeze_args(args: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sort attributes so record equality and exports are order-independent."""
    return tuple(sorted(args.items()))


class Ambient:
    """A module-level install stack.

    ``noun`` names the instrument in error messages ("no tracer
    installed"); its last word names it in the out-of-order message ("a
    different registry is active" for ``"metric registry"``).
    """

    def __init__(self, default: Any, noun: str) -> None:
        self._stack: list[Any] = [default]
        self._noun = noun

    def current(self) -> Any:
        """The active instrument (the disabled default when none is installed)."""
        return self._stack[-1]

    def install(self, instrument: Any) -> Any:
        """Make ``instrument`` active until :meth:`uninstall`."""
        self._stack.append(instrument)
        return instrument

    def uninstall(self, instrument: Any = None) -> None:
        """Pop the active instrument (validating it is ``instrument`` when given)."""
        if len(self._stack) == 1:
            raise RuntimeError(f"no {self._noun} installed")
        if instrument is not None and self._stack[-1] is not instrument:
            kind = self._noun.rsplit(" ", 1)[-1]
            raise RuntimeError(f"uninstall out of order: a different {kind} is active")
        self._stack.pop()

    @contextmanager
    def installed(self, instrument: Any) -> Iterator[Any]:
        """Install ``instrument`` for the duration of a ``with`` block."""
        self.install(instrument)
        try:
            yield instrument
        finally:
            self.uninstall(instrument)


class RingBuffer:
    """Records in a bounded ring: once full, each append evicts the oldest.

    The ring is a ``deque`` with ``maxlen``, so an append and the eviction
    it implies run in C; :meth:`records` returns the retained records in
    emission order.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque[Any] = deque(maxlen=capacity)

    def records(self) -> list[Any]:
        """All retained records in emission order (oldest first)."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop all retained records."""
        self._ring.clear()
