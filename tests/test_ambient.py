"""Tests for the install stack shared by trace, metrics, audit and profiling.

Each instrument module binds ``current``/``install``/``uninstall`` (and a
context manager) to one :class:`repro.core.ambient.Ambient`; these tests
run the same stack mechanics against all four bindings.
"""

from collections.abc import Callable
from typing import Any, NamedTuple

import pytest

from repro import audit, metrics, trace
from repro.runner import ProfileCollector, profiling


class Stack(NamedTuple):
    current: Callable[[], Any]
    install: Callable[[Any], Any]
    uninstall: Callable[..., None]
    make: Callable[[], Any]
    context: Callable[..., Any]  # (instrument=None) -> context manager
    default: Any
    empty_message: str
    kind: str


STACKS = {
    "trace": Stack(
        trace.current, trace.install, trace.uninstall, trace.Tracer, trace.tracing,
        trace.NULL_TRACER, "no tracer installed", "tracer",
    ),
    "audit": Stack(
        audit.current, audit.install, audit.uninstall, audit.Auditor, audit.auditing,
        audit.NULL_AUDITOR, "no auditor installed", "auditor",
    ),
    "metrics": Stack(
        metrics.current, metrics.install, metrics.uninstall, metrics.MetricRegistry,
        metrics.collecting, metrics.NULL_REGISTRY, "no metric registry installed", "registry",
    ),
    "profiling": Stack(
        profiling.active, profiling.install, profiling.uninstall, ProfileCollector,
        lambda collector=None: profiling._stack.installed(collector or ProfileCollector()),
        None, "no profile collector installed", "collector",
    ),
}


@pytest.fixture(params=sorted(STACKS))
def stack(request) -> Stack:
    return STACKS[request.param]


class TestInstallStack:
    def test_default_is_the_disabled_object(self, stack):
        assert stack.current() is stack.default
        assert not getattr(stack.current(), "enabled", False)

    def test_install_uninstall(self, stack):
        instrument = stack.make()
        assert stack.install(instrument) is instrument
        try:
            assert stack.current() is instrument
        finally:
            stack.uninstall(instrument)
        assert stack.current() is stack.default

    def test_uninstall_out_of_order_raises(self, stack):
        active = stack.install(stack.make())
        try:
            with pytest.raises(
                RuntimeError,
                match=f"^uninstall out of order: a different {stack.kind} is active$",
            ):
                stack.uninstall(stack.make())
        finally:
            stack.uninstall(active)

    def test_uninstall_with_nothing_installed_raises(self, stack):
        with pytest.raises(RuntimeError, match=f"^{stack.empty_message}$"):
            stack.uninstall()
        assert stack.current() is stack.default

    def test_context_managers_nest(self, stack):
        given = stack.make()
        with stack.context() as outer:
            assert type(outer) is type(given)
            assert stack.current() is outer
            with stack.context(given) as inner:
                assert inner is given
                assert stack.current() is inner
            assert stack.current() is outer
        assert stack.current() is stack.default

    def test_context_manager_pops_when_the_body_raises(self, stack):
        with pytest.raises(ValueError, match="boom"):
            with stack.context(stack.make()):
                raise ValueError("boom")
        assert stack.current() is stack.default
