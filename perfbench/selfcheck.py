"""Determinism self-check of the benchmark's workloads.

    python3 perfbench/selfcheck.py [--seed N]

For each workload: the same seed must give the same item list and, over
two passes, the same answers; the next seed must give another item list.
Exits non-zero on the first workload that breaks one of these.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import run


def check_workload(name: str, seed: int) -> list[str]:
    from answers import digest, items_digest

    wl = importlib.import_module(run.WORKLOADS[name])
    problems = []
    with run.workdir() as wd:
        items, ctx = wl.setup(seed, wd)
        with run.workdir() as wd2:
            again, _ = wl.setup(seed, wd2)
            other, _ = wl.setup(seed + 1, wd2)
        if items_digest(items) != items_digest(again):
            problems.append(f"seed {seed} gave two different item lists")
        if items_digest(items) == items_digest(other):
            problems.append(f"seeds {seed} and {seed + 1} gave the same item list")
        answers = []
        for _ in range(2):
            p = run.run_pass(wl, items, ctx, traced=False)
            answers.append(digest("".join(str(d) for d in run.item_digests(wl, items, p))))
        if answers[0] != answers[1]:
            problems.append(f"seed {seed} gave two different answer digests")
    print(f"{name}: items {items_digest(items)} answers {answers[0]} "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args(argv)
    if run.import_program() is None:
        print(f"error: no qlam package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = []
    for name in sorted(run.WORKLOADS):
        problems += check_workload(name, args.seed)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
