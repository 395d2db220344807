#!/usr/bin/env python3
"""Regenerate the golden files for the repro scenarios.

Run after an intentional behavior change, then review the diff; the
repro command compares each file with the same serializer.
"""

import pathlib

from qlam.cli import SCENARIOS, _dumps

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "src" / "qlam" / "golden"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, builder in sorted(SCENARIOS.items()):
        path = GOLDEN / f"{name}.json"
        path.write_text(_dumps(builder()) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
