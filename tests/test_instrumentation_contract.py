"""Reflection contract for the instrumentation hook surface.

``HOOK_NAMES`` enumerates every hook on the base observer.  These tests
check it by reflection, and check that every ``on_*`` method the tracing
adapter defines is a real hook with the base signature, so a typo'd or
renamed hook cannot silently stop firing.
"""

import inspect

from repro.core.stages.instrumentation import HOOK_NAMES, Instrumentation
from repro.observe import TracingInstrumentation


def _hook_signature(name):
    return inspect.signature(getattr(Instrumentation, name))


def _dummy_args(name):
    """Plausible positional arguments for each hook, derived from its arity."""
    params = list(_hook_signature(name).parameters)
    return [object()] * (len(params) - 1)  # minus self


class TestHookNames:
    def test_every_on_method_is_enumerated(self):
        declared = {
            name
            for name, member in vars(Instrumentation).items()
            if name.startswith("on_") and callable(member)
        }
        assert set(HOOK_NAMES) == declared
        assert len(HOOK_NAMES) >= 14  # the PR-3 surface; only ever grows

    def test_known_hooks_present(self):
        expected = {
            "on_extract_start",
            "on_extract_end",
            "on_stage_start",
            "on_stage_end",
            "on_fallback",
            "on_page_start",
            "on_page_end",
            "on_page_error",
            "on_fetch_start",
            "on_fetch_retry",
            "on_fetch_end",
            "on_fetch_error",
            "on_breaker_transition",
            "on_cache_hit",
            "on_cache_miss",
        }
        assert expected <= set(HOOK_NAMES)


class TestObserversCoverTheSurface:
    def test_adapter_overrides_are_hooks(self):
        """Every ``on_*`` method the adapter defines must exist on the base
        class with the same signature -- catches typos like
        ``on_fetch_ended`` that would never be called."""
        for name, member in vars(TracingInstrumentation).items():
            if not (name.startswith("on_") and callable(member)):
                continue
            assert name in HOOK_NAMES, f"TracingInstrumentation.{name} is not a hook"
            base_params = list(_hook_signature(name).parameters)
            impl_params = list(inspect.signature(member).parameters)
            assert len(impl_params) == len(base_params), (
                f"TracingInstrumentation.{name} arity differs from the base hook"
            )

    def test_base_hooks_are_noops(self):
        observer = Instrumentation()
        for name in HOOK_NAMES:
            assert getattr(observer, name)(*_dummy_args(name)) is None
