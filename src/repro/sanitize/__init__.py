"""repro.sanitize — pattern-conformance sanitizer and race detector.

The declared memory access patterns of a task are a *contract*: the
scheduler copies exactly the data the input patterns require and gathers
exactly the regions the output patterns declare. A kernel that reads or
writes outside those footprints often still passes single-device tests —
everything is resident on one GPU — and only corrupts results on a
multi-GPU node, where the out-of-pattern elements are stale or absent.
This package makes such kernels fail loudly on the host, before any
multi-GPU run:

* ``Scheduler(node, sanitize=True)`` — the executor: record every
  element access through the device views of a simulated run and check
  conformance (DESIGN.md §9).
* :class:`SanitizeSession` / :func:`sanitize_task` — run tasks on that
  scheduler with one simulated GPU per segment, and report per task.
* :func:`lint_invocation` — static declaration lint, no execution needed.
* ``python -m repro.sanitize`` — run every built-in kernel and app under
  the checker.
"""

from repro.sanitize.checker import check_races, check_segment
from repro.sanitize.errors import (
    LintIssue,
    OutOfPatternReadError,
    OutOfRegionWriteError,
    SanitizerError,
    UnaggregatedReadError,
    WriteRaceError,
)
from repro.sanitize.harness import (
    SanitizeReport,
    SanitizeSession,
    sanitize_task,
)
from repro.sanitize.lint import lint_invocation
from repro.sanitize.recorder import AccessFlag, AccessRecorder

__all__ = [
    "SanitizerError",
    "OutOfPatternReadError",
    "OutOfRegionWriteError",
    "WriteRaceError",
    "UnaggregatedReadError",
    "LintIssue",
    "AccessFlag",
    "AccessRecorder",
    "SanitizeSession",
    "SanitizeReport",
    "sanitize_task",
    "lint_invocation",
    "check_segment",
    "check_races",
]
