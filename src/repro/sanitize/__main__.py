"""``python -m repro.sanitize`` — run every built-in kernel and app under
the pattern-conformance sanitizer.

Exit status 0 means: all conformance scenarios ran clean (and their
numerical cross-checks passed), and every seeded-violation demo was caught
with the exact typed error it documents. Anything else exits 1 with a
per-scenario report.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro.sanitize.builtin import CONFORMANCE, DEMOS, ScenarioFailure
from repro.sanitize.errors import SanitizerError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description=(
            "Run the built-in kernels and apps under the declared-pattern "
            "conformance sanitizer, and verify the seeded violation demos "
            "are caught."
        ),
    )
    parser.add_argument(
        "--scenario",
        help="run only scenarios whose name contains this substring",
    )
    parser.add_argument(
        "--segments", type=int, default=3,
        help="simulated GPUs per session, one per segment (default 3)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, _ in CONFORMANCE:
            print(f"conformance  {name}")
        for name, exc, _ in DEMOS:
            print(f"violation    {name}  (expects {exc.__name__})")
        return 0

    def selected(name: str) -> bool:
        return not args.scenario or args.scenario in name

    failures: list[str] = []
    for name, fn in CONFORMANCE:
        if not selected(name):
            continue
        try:
            fn(args.segments)
        except (SanitizerError, ScenarioFailure) as e:
            failures.append(name)
            print(f"FAIL {name}")
            print("  " + str(e).replace("\n", "\n  "))
        except Exception:
            failures.append(name)
            print(f"ERROR {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")

    for name, exc_type, fn in DEMOS:
        if not selected(name):
            continue
        try:
            fn(args.segments)
        except exc_type as e:
            first = str(e).splitlines()[0]
            print(f"ok   {name} (caught: {first})")
        except SanitizerError as e:
            failures.append(name)
            print(
                f"FAIL {name}: expected {exc_type.__name__}, got "
                f"{type(e).__name__}"
            )
            print("  " + str(e).replace("\n", "\n  "))
        except Exception:
            failures.append(name)
            print(f"ERROR {name}")
            traceback.print_exc()
        else:
            failures.append(name)
            print(
                f"FAIL {name}: expected {exc_type.__name__}, nothing raised"
            )

    total = len([n for n, _ in CONFORMANCE if selected(n)]) + len(
        [n for n, _, _ in DEMOS if selected(n)]
    )
    if failures:
        print(f"\n{len(failures)}/{total} scenario(s) failed")
        return 1
    print(f"\nall {total} scenario(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
