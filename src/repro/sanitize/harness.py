"""The sanitizer session: tasks run on a sanitizing scheduler, reported.

:class:`SanitizeSession` runs each task through
``Scheduler(sanitize=True)`` on a functional
:class:`~repro.sim.node.SimNode` with one GPU per segment. The scheduler
partitions, allocates, copies and aggregates by the declared patterns,
records every access through the device views and judges it
(:func:`~repro.sanitize.checker.check_segment` per segment,
:func:`~repro.sanitize.checker.check_races` across segments). A read
outside the declared footprint finds no data on its device: the view
reads it as zero, and it is recorded and reported.

The session adds what the scheduler has no counterpart for: lint and
unused-input warnings, strict or collected reporting, and the
aggregation discipline. Duplicated outputs (reductive,
unstructured-injective) stay pending until
:meth:`SanitizeSession.aggregate` gathers them; a task reading a pending
datum raises :class:`~repro.sanitize.errors.UnaggregatedReadError`, the
dynamic analogue of reading one device's histogram partial as if it
were the reduction.

Known false negatives (DESIGN.md §9): direct mutation of a structured
output's ``.array`` is not attributed per element (the view records only
``write()``/iterator writes); unmodified (``raw``) routines receive bare
arrays and are statically linted only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.datum import Datum
from repro.core.scheduler import Scheduler
from repro.core.task import Kernel
from repro.hardware import GTX_780
from repro.patterns.base import InputContainer, OutputContainer
from repro.sanitize.errors import LintIssue, SanitizerError, UnaggregatedReadError
from repro.sanitize.lint import lint_invocation
from repro.sim import SimNode


@dataclass
class SanitizeReport:
    """Outcome of one sanitized invocation."""

    task: str
    errors: list[SanitizerError] = field(default_factory=list)
    warnings: list[LintIssue] = field(default_factory=list)
    segments: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors


class SanitizeSession:
    """Run tasks under the conformance sanitizer on a simulated node.

    Args:
        segments: Number of simulated devices to partition each grid into
            (segments beyond the thread-block count stay idle, exactly as
            on a real node).
        strict: Raise the first :class:`SanitizerError` instead of
            collecting it into the report.
    """

    def __init__(self, segments: int = 3, strict: bool = True):
        if segments < 1:
            raise ValueError("need at least one segment")
        self.segments = segments
        self.strict = strict
        self.sched = Scheduler(
            SimNode(GTX_780, segments, functional=True), sanitize=True
        )
        #: Duplicated outputs written but not yet aggregated.
        self._pending: set[Datum] = set()
        self.reports: list[SanitizeReport] = []

    # -- datum state -------------------------------------------------------
    def array(self, datum: Datum) -> np.ndarray:
        """``datum``'s bound host array, gathered from the node unless
        partials are pending (an unbound datum is bound to zeros)."""
        _bind(datum)
        if datum not in self._pending:
            self.sched.gather(datum)
        return datum.host

    def pending(self, datum: Datum) -> bool:
        """Whether ``datum`` holds unaggregated partials."""
        return datum in self._pending

    def aggregate(self, datum: Datum) -> np.ndarray:
        """Combine pending per-segment partials into the host array (the
        framework's gather-time aggregation) and return it."""
        self._pending.discard(datum)
        return self.array(datum)

    # -- execution ---------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        *containers,
        grid=None,
        constants: Mapping[str, Any] | None = None,
    ) -> SanitizeReport:
        """Execute one task under the sanitizer.

        Returns the :class:`SanitizeReport`; in strict mode the first
        violation raises instead.
        """
        sched = self.sched
        for c in containers:
            _bind(c.datum)
        task = sched.analyze_call(
            kernel, *containers, grid=grid, constants=constants
        )
        report = SanitizeReport(task=task.name)
        report.warnings = [
            i for i in lint_invocation(kernel, containers, grid=task.grid)
            if i.severity == "warning"
        ]
        report.segments = sum(
            not r.empty for r in task.grid.partition(self.segments)
        )
        self.reports.append(report)

        # Reading a datum whose last writer left unaggregated partials is
        # itself a violation — the values are one device's partial.
        for i, c in enumerate(task.containers):
            if isinstance(c, InputContainer) and self.pending(c.datum):
                self._emit(report, UnaggregatedReadError(
                    "task reads a datum whose reductive partials were "
                    "never aggregated",
                    task=task.name,
                    container_index=i,
                    datum=c.datum.name,
                ))

        seen = len(sched.violations)
        submit = sched.invoke_unmodified if kernel.raw else sched.invoke
        handle = submit(kernel, *containers, grid=grid, constants=constants)
        try:
            sched.wait(handle)
        except SanitizerError:
            pass  # every violation of the task is in sched.violations
        for err in sched.violations[seen:]:
            self._emit(report, err)
        self._pending.update(
            c.datum for c in task.outputs if c.duplicated
        )

        # Unmodified routines receive bare arrays: nothing is recorded,
        # so there is no dynamic coverage to judge.
        if not kernel.raw:
            touched: set[int] = set()
            for rec in handle.recorders.values():
                touched |= rec.touched_inputs()
            for i, c in enumerate(task.containers):
                if isinstance(c, InputContainer) and i not in touched:
                    report.warnings.append(LintIssue(
                        "warning", "unused-input",
                        f"declared input {c.datum.name!r} was never read "
                        "by any segment (over-declared footprint forces "
                        "useless copies)",
                        task=task.name, container_index=i,
                    ))
        return report

    def _emit(self, report: SanitizeReport, err: SanitizerError) -> None:
        report.errors.append(err)
        if self.strict:
            raise err


def _bind(datum: Datum) -> None:
    """Give an unbound datum a zeros host array to gather into."""
    if datum.host is None:
        datum.bind(np.zeros(datum.shape, datum.dtype))


def sanitize_task(
    kernel: Kernel,
    *containers,
    grid=None,
    constants: Mapping[str, Any] | None = None,
    segments: int = 3,
    strict: bool = True,
) -> SanitizeReport:
    """One-shot convenience: run a single task under a fresh session and
    aggregate every duplicated output before returning."""
    session = SanitizeSession(segments=segments, strict=strict)
    report = session.run(
        kernel, *containers, grid=grid, constants=constants
    )
    for c in containers:
        if isinstance(c, OutputContainer) and c.duplicated:
            session.aggregate(c.datum)
    return report
