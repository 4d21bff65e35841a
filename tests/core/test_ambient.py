"""The ambient-context stack shared by the tracer, the fault plan and
the profilers."""

import ast
import inspect

import pytest

from repro.core import ambient
from repro.core.ambient import Ambient


def test_nesting_and_masking():
    stack = Ambient()
    assert stack.active() is None
    with stack.use("outer") as value:
        assert value == "outer"
        assert stack.active() == "outer"
        with stack.use(None):          # an explicit "none here" scope
            assert stack.active() is None
        with stack.use("inner"):
            assert stack.active() == "inner"
        assert stack.active() == "outer"
    assert stack.active() is None


def test_pops_on_exception():
    stack = Ambient()
    with pytest.raises(RuntimeError):
        with stack.use("x"):
            raise RuntimeError("boom")
    assert stack.active() is None


def test_public_helpers_are_the_shared_stacks():
    from repro.faults import active_fault_plan, use_faults
    from repro.obs.critscope import active_critscope, use_critscope
    from repro.obs.hostscope import active_hostscope, use_hostscope
    from repro.obs.memscope import active_memscope, use_memscope
    from repro.sim import active_tracer, use_tracer

    pairs = [(ambient.TRACER, active_tracer, use_tracer),
             (ambient.FAULTS, active_fault_plan, use_faults),
             (ambient.MEMSCOPE, active_memscope, use_memscope),
             (ambient.CRITSCOPE, active_critscope, use_critscope),
             (ambient.HOSTSCOPE, active_hostscope, use_hostscope)]
    for stack, active, use in pairs:
        assert active == stack.active and use == stack.use
        with use("sentinel"):
            assert stack.active() == "sentinel" == active()


def test_imports_nothing_from_the_package():
    tree = ast.parse(inspect.getsource(ambient))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
