"""``AnalyzeCall`` sizes boxes from the call's plan, against the old analyzer.

The memory analyzer computes no geometry of its own: it folds the rects
of the plan ``build_plan`` makes for the call, the plan every later invoke
of the call runs. Before that, the analyzer partitioned the grid and
evaluated each container's ``required``/``owned`` rect itself.
:func:`oracle_requirements` keeps that body as the reference. For every
geometry of ``test_task_rebind.CASES`` that builds, on 1-4 GPUs, under an
even and a weighted split, the boxes ``analyze_call`` leaves must equal
the oracle's rects folded into bounding boxes: for the call that builds
the node's template, for a later call that rebinds it over fresh datums,
and on an uncached scheduler, which builds an unstored plan.
"""

import pytest

from repro.core import Kernel, Scheduler
from repro.hardware import GTX_780
from repro.patterns.base import InputContainer, OutputContainer
from repro.sim import SimNode
from tests.core.test_task_rebind import CASES, containers

#: Weights of the ratio-aware split, per device (the first n are used).
WEIGHTS = (16, 4, 9, 16)


def oracle_requirements(task, devices, weights):
    """The analyzer's former requirement computation: per device with
    work, each container's required (inputs) or owned (outputs) virtual
    rect, as ``(container index, device, rect)``."""
    if weights is None:
        partition = task.grid.partition(len(devices))
    else:
        partition = task.grid.partition_weighted(weights)
    out = []
    for device, work_rect in zip(devices, partition):
        if work_rect.empty:
            continue
        for i, c in enumerate(task.containers):
            if isinstance(c, InputContainer):
                rect = c.required(task.grid.shape, work_rect).virtual
            elif isinstance(c, OutputContainer):
                rect = c.owned(task.grid.shape, work_rect)
            else:  # pragma: no cover - Container is abstract
                continue
            out.append((i, device, rect))
    return tuple(out)


def oracle_boxes(task, devices, weights) -> dict:
    """The oracle's rects folded into per-(datum, device) boxes."""
    boxes = {}
    for i, device, rect in oracle_requirements(task, devices, weights):
        key = (id(task.containers[i].datum), device)
        prev = boxes.get(key)
        boxes[key] = rect if prev is None else prev.hull(rect)
    return boxes


@pytest.mark.parametrize("weighted", [False, True], ids=["even", "weighted"])
@pytest.mark.parametrize("gpus", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "name", [n for n, case in CASES.items() if case[2] is None]
)
def test_analyze_call_folds_the_oracle_rects(name, gpus, weighted):
    grid = CASES[name][1]
    kernel = Kernel("k")
    weights = WEIGHTS[:gpus] if weighted else None
    for plan_cache in (True, False):
        node = SimNode(GTX_780, gpus, functional=False)
        sched = Scheduler(node, plan_cache=plan_cache)
        sched._weights = weights
        alive = sched.alive_devices
        expected = {}
        # With the cache on, the first call builds the node's template
        # and the second rebinds it over fresh datums.
        for _ in range(2):
            task = sched.analyze_call(kernel, *containers(CASES[name]),
                                      grid=grid)
            expected.update(oracle_boxes(task, alive, weights))
        assert sched.analyzer._boxes == expected
        if plan_cache:
            assert len(node.plan_tables.templates) == 1
