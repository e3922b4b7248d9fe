"""Fail if a regenerated BENCH file's simulated fields differ from the
committed file's.

Usage::

    python .github/scripts/simulated_fields.py COMMITTED REGENERATED \
        [--skip KEY ...] [--skip-suffix SUFFIX ...]

Every leaf of both JSON files is compared by its path, except under keys
named in ``--skip`` or ending in a ``--skip-suffix`` (per-run wall-clock
fields, build-dependent hashes, blocks that exist only with a CLI flag).
Prints each differing field and exits 1 if there is one.
"""

import argparse
import json
import sys


def simulated(x, skip, suffixes, path=""):
    """``(path, value)`` for every leaf outside the skipped keys."""
    if isinstance(x, dict):
        for k, v in x.items():
            if k not in skip and not k.endswith(suffixes):
                yield from simulated(v, skip, suffixes, f"{path}/{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from simulated(v, skip, suffixes, f"{path}[{i}]")
    else:
        yield path, x


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("committed")
    p.add_argument("regenerated")
    p.add_argument("--skip", nargs="*", default=[])
    p.add_argument("--skip-suffix", nargs="*", default=[])
    args = p.parse_args(argv)
    skip, suffixes = set(args.skip), tuple(args.skip_suffix)
    old, new = (
        dict(simulated(json.load(open(f)), skip, suffixes))
        for f in (args.committed, args.regenerated)
    )
    diff = sorted(
        k for k in old.keys() | new.keys() if old.get(k) != new.get(k)
    )
    for k in diff:
        print(f"{k}: committed {old.get(k)!r}, regenerated {new.get(k)!r}")
    print(f"{len(old)} simulated fields compared, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
