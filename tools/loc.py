#!/usr/bin/env python3
"""Counts lines of C++ source under src/, per module, as JSON.

A module is a direct subdirectory of src/ (des, core, qos, ...); only
.cpp and .hpp files count, every line included (code, comments, blanks),
the same measure as `wc -l`. The total tracks how much code the stack
carries from change to change.

Usage:
  loc.py [--root DIR] [--markdown]

--root is the repository root (default: the parent of this script's
directory). --markdown prints a table for a CI job summary instead of
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def src_lines(root: Path) -> dict[str, int]:
    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    modules: dict[str, int] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp") or not path.is_file():
            continue
        parts = path.relative_to(src).parts
        module = parts[0] if len(parts) > 1 else "."
        modules[module] = modules.get(module, 0) + count_lines(path)
    return modules


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()
    try:
        modules = src_lines(args.root)
    except FileNotFoundError as error:
        print(f"loc.py: {error}", file=sys.stderr)
        return 1
    total = sum(modules.values())
    if args.markdown:
        print("| src/ module | lines |")
        print("|---|---:|")
        for module, lines in modules.items():
            print(f"| {module} | {lines} |")
        print(f"| **total** | **{total}** |")
    else:
        print(json.dumps({"modules": modules, "total": total}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
