"""``Task.rebind`` from a call template is sound across datums.

A call template (``plan.CallTemplate``) is keyed by geometry, not by
datum: a later ``AnalyzeCall`` over other datums of the same shapes and
dtypes rebinds it instead of constructing a ``Task``. That skips the
constructor's checks and its implied grid, so both must depend on
geometry alone. For every input pattern of Table 1 and output pattern of
§3.2 this table builds one call twice over fresh datums: a fresh ``Task``
of the second call must agree with the first call's outcome (the same
error, or none), and the scheduler's rebind of the second call must give
the fresh task's grid, inputs/outputs split, signature and analyzed boxes.
"""

import numpy as np
import pytest

import repro.patterns as P
from repro.core import Datum, Grid, Kernel, Scheduler
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.core.plan import task_signature
from repro.core.task import Task
from repro.errors import PatternMismatchError, SchedulingError
from repro.hardware import GTX_780
from repro.sim import SimNode

F4, U1 = np.float32, np.uint8

#: id -> (containers as (class, datum shape, dtype, kwargs), grid, error).
CASES = {
    "block1d": ([(P.Block1D, (64,), F4, {}),
                 (P.StructuredInjective, (64,), F4, {})], None, None),
    "block2d": ([(P.Block2D, (32, 16), F4, {}),
                 (P.StructuredInjective, (32, 16), F4, {})], None, None),
    "block2d_transposed": ([(P.Block2DTransposed, (16, 32), F4, {}),
                            (P.StructuredInjective, (32, 32), F4, {})],
                           None, None),
    "window1d": ([(P.Window1D, (64,), U1, {"radius": 2}),
                  (P.StructuredInjective, (64,), U1, {})], None, None),
    "window2d_wrap": ([(P.Window2D, (32, 32), U1, {"boundary": P.WRAP}),
                       (P.StructuredInjective, (32, 32), U1, {})],
                      None, None),
    "window3d": ([(P.Window3D, (8, 8, 8), F4, {}),
                  (P.StructuredInjective, (8, 8, 8), F4, {})], None, None),
    "window4d": ([(P.Window4D, (4, 4, 8, 8), F4, {}),
                  (P.StructuredInjective, (4, 4, 8, 8), F4, {})],
                 None, None),
    "windownd": ([(P.WindowND, (32, 16), F4,
                   {"radius": (1, 2), "boundary": P.ZERO}),
                  (P.StructuredInjective, (32, 16), F4, {})], None, None),
    "block_striped": ([(P.BlockStriped, (16, 3, 5), F4, {}),
                       (P.InjectiveStriped, (16, 7), F4, {})], None, None),
    "block_column_striped": ([(P.BlockColumnStriped, (8, 32), F4, {}),
                              (P.InjectiveColumnStriped, (8, 32), F4, {})],
                             None, None),
    "replicated": ([(P.Replicated, (20,), F4, {}),
                    (P.StructuredInjective, (64,), F4, {})], None, None),
    "adjacency": ([(P.Adjacency, (20, 4), F4, {}),
                   (P.StructuredInjective, (64,), F4, {})], None, None),
    "traversal_bfs": ([(P.TraversalBFS, (20,), F4, {}),
                       (P.StructuredInjective, (64,), F4, {})], None, None),
    "traversal_dfs": ([(P.TraversalDFS, (20,), F4, {}),
                       (P.StructuredInjective, (64,), F4, {})], None, None),
    "permutation": ([(P.Permutation, (20,), F4, {}),
                     (P.StructuredInjective, (64,), F4, {})], None, None),
    "irregular_input": ([(P.IrregularInput, (20,), F4, {}),
                         (P.StructuredInjective, (64,), F4, {})],
                        None, None),
    "structured_injective_ilp": ([(P.Block2D, (32, 16), F4, {}),
                                  (P.StructuredInjective, (32, 16), F4,
                                   {"ilp": (2, 1)})], None, None),
    "unstructured_injective": ([(P.Window1D, (64,), F4, {}),
                                (P.UnstructuredInjective, (64,), F4, {})],
                               Grid((64,)), None),
    "reductive_static": ([(P.Window2D, (32, 32), U1, {}),
                          (P.ReductiveStatic, (256,), np.int32,
                           {"op": "max"})], Grid((32, 32), 4), None),
    "reductive_dynamic": ([(P.Block1D, (64,), F4, {}),
                           (P.ReductiveDynamic, (100,), F4, {})],
                          Grid((64,)), None),
    "irregular_output": ([(P.Block1D, (64,), F4, {}),
                          (P.IrregularOutput, (100,), F4, {})],
                         Grid((64,)), None),
    # Construction's checks fail alike for every datum of the geometry.
    "window_vs_work_dims": ([(P.Window2D, (32, 32), U1, {}),
                             (P.StructuredInjective, (32,), U1, {})],
                            Grid((32,)), PatternMismatchError),
    "no_implied_grid": ([(P.Block1D, (64,), F4, {}),
                         (P.ReductiveStatic, (256,), np.int32, {})],
                        None, SchedulingError),
    "no_output": ([(P.Block1D, (64,), F4, {})], Grid((64,)),
                  SchedulingError),
}


def containers(case) -> tuple:
    """The case's containers over fresh datums."""
    return tuple(
        cls(Datum(shape, dtype), **kwargs)
        for cls, shape, dtype, kwargs in case[0]
    )


def test_table_covers_every_pattern_class():
    concrete = {
        obj for name in P.__all__
        if isinstance(obj := getattr(P, name), type)
        and issubclass(obj, P.Container)
        and obj not in (P.Container, P.InputContainer, P.OutputContainer,
                        P.FullReplicationInput)
    }
    used = {cls for case in CASES.values() for cls, *_ in case[0]}
    assert concrete <= used


@pytest.mark.parametrize("name", CASES)
def test_rebind_matches_a_fresh_task(name, monkeypatch):
    case = CASES[name]
    grid, error = case[1], case[2]
    node = SimNode(GTX_780, 2, functional=False)
    sched = Scheduler(node)
    kernel = Kernel("k")
    first, second = containers(case), containers(case)
    if error is not None:
        for cs in (first, second):
            with pytest.raises(error):
                Task(kernel, cs, grid)
            with pytest.raises(error):
                sched.analyze_call(kernel, *cs, grid=grid)
        assert not node.plan_tables.templates
        return
    sched.analyze_call(kernel, *first, grid=grid)
    (template,) = node.plan_tables.templates.values()
    fresh = Task(kernel, second, grid)
    built = []
    init = Task.__init__

    def spying(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", spying)
    task = sched.analyze_call(kernel, *second, grid=grid)
    assert built == []  # bound from the template
    assert task.grid == fresh.grid
    assert task.inputs == fresh.inputs and task.outputs == fresh.outputs
    alive = sched.alive_devices
    assert task_signature(task, alive) == task_signature(fresh, alive) \
        == template.plan.signature
    reference = MemoryAnalyzer(node)
    reference.analyze(fresh, alive)
    for c in second:
        for d in alive:
            assert sched.analyzer.analyzed(c.datum, d) == \
                reference.analyzed(c.datum, d)
            if reference.analyzed(c.datum, d):
                assert sched.analyzer.box(c.datum, d) == \
                    reference.box(c.datum, d)
