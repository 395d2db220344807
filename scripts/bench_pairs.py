"""Alternating base/tree pairs of perfbench runs.

    python3 scripts/bench_pairs.py BASE --workload nf-distances --pairs 10 \
        --seed 1 --workdir DIR

Exports the git revision BASE with `git archive` into DIR, then runs
`perfbench/run.py` on that export and on the working tree of this
checkout, one after the other, PAIRS times, switching which side runs
first from one pair to the next.  Every run lasts BENCHMARK.json's
`run_seconds`, the same on both sides.  For every metric it prints each pair,
each side's median and quartiles, and how many pairs the tree won (ties
count for neither side); a gain is marked where, over at least ten
pairs, the tree won at least nine in ten, the medians differ by more
than the distance between the base runs' quartiles, every tree run was
correct and no tree run failed more operations than its paired base run.  Which way a metric
is better comes from BENCHMARK.json.  The last line of standard output
is one JSON object holding every run; with --out PATH it is also
written to PATH, together with the Python version, both commits (and
whether the working tree differs from HEAD), `nproc` and the line
count of the tree's src/.  Each run records its pass count, read from
run.py's metadata line, next to its metrics.  Nothing under perfbench/
is changed.

Each side runs with its own bytecode cache: PYTHONPYCACHEPREFIX points
at a directory under DIR, which is filled before the first run by
compiling the side's src/ and perfbench/ and by one set-up probe that
writes the bytecode of every module it imports.  So neither side reads
a __pycache__ directory of its checkout, which may be stale or missing,
and set-up compiles nothing on either side.

With --ops, each side also runs one untraced pass of the workload's item
list in a fresh interpreter, loaded as `run.py --setup-probe` loads it,
with every item run under `sys.settrace` and `f_trace_opcodes`.  The
executed bytecode instructions per item kind, base against tree, are
printed with their sum over all kinds and added to the final JSON under
"ops", the sums under "ops"["total"].  A count does not move
with the host's speed, so it backs a timing claim on a noisy host; it
costs minutes per side.  --pairs 0 --ops gives the counts alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision to compare the working tree against")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, help="where the base export goes (default: a new temporary directory)")
    ap.add_argument("--out", type=Path, help="also write the final JSON, with the host and source metadata, here")
    ap.add_argument("--ops", action="store_true", help="also count executed bytecode instructions per item kind")
    args = ap.parse_args(argv)
    if args.pairs < (0 if args.ops else 1):
        ap.error("--pairs must be at least 1, or 0 with --ops")
    args.seconds = bench["run_seconds"]
    args.better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def metadata(base: str) -> dict:
    """Where the pairs ran and what the tree side measured."""
    return {
        "python": platform.python_version(),
        "base_commit": git("rev-parse", "--verify", base + "^{commit}"),
        "tree_commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def export(base: str, workdir: Path) -> Path:
    """The files of revision base, unpacked under workdir."""
    sha = git("rev-parse", "--verify", base + "^{commit}")
    dest = workdir / f"base-{sha[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bytecode_env(root: Path, side: str, workdir: Path, args) -> dict:
    """The environment of one side's runs, with its bytecode cache under
    workdir filled from the checkout at root."""
    prefix = workdir / f"pycache-{side}"
    shutil.rmtree(prefix, ignore_errors=True)
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(prefix)}
    # the filling runs write bytecode even where the environment says not to
    fill = {name: value for name, value in env.items() if name != "PYTHONDONTWRITEBYTECODE"}
    for cmd in (
        [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(root / "perfbench")],
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
    ):
        proc = subprocess.run(cmd, cwd=root, env=fill, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return env


def run_once(root: Path, env: dict, args) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        # the pass count: peak_rss_mib grows with it at equal program memory
        "passes": json.loads(lines[-2])["meta"]["passes"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def count_ops(root: Path, args) -> dict:
    """{kind: {"items", "failed", "instructions"}} from one pass in a fresh
    interpreter over the checkout at root."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--ops-child", str(root), args.workload, str(args.seed)]
    # string hashes order sets, and so some loops: fix them
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"op count in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_child(root: str, workload: str, seed: str) -> int:
    """The child of count_ops: load qlam.cli and the workload from root as
    the set-up probe does, then run each item once under an opcode
    counter and print the counts per kind as one JSON line."""
    root_path = Path(root)
    sys.path[:0] = [str(root_path / "src"), str(root_path / "perfbench")]
    import qlam.cli  # loaded first, as perfbench/run.py loads it

    run = importlib.import_module("run")
    wl = importlib.import_module(run.WORKLOADS[workload])
    from layers import Layers

    with tempfile.TemporaryDirectory() as wd:
        items, ctx = wl.setup(int(seed), Path(wd))
        layers = Layers(False)
        state = wl.new_pass(ctx)
        counts: dict[str, dict] = {}
        executed = [0]

        def tracer(frame, event, _arg):
            if event == "call":
                frame.f_trace_opcodes = True
            elif event == "opcode":
                executed[0] += 1
            return tracer

        for index, (kind, payload) in enumerate(items):
            layers.item = index
            executed[0] = 0
            failed = 0
            sys.settrace(tracer)
            try:
                wl.RUNNERS[kind](layers, state, payload)
            except Exception:
                failed = 1
            finally:
                sys.settrace(None)
            row = counts.setdefault(kind, {"items": 0, "failed": 0, "instructions": 0})
            row["items"] += 1
            row["failed"] += failed
            row["instructions"] += executed[0]
    print(json.dumps(counts))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    if not runs:
        return {}
    names = sorted(set(runs[0]["base"]["metrics"]) & set(runs[0]["tree"]["metrics"]))
    outcomes_hold = all(
        r["tree"]["correct"] and r["tree"]["failed"] <= r["base"]["failed"] for r in runs
    )
    out = {}
    for name in names:
        base = [r["base"]["metrics"][name] for r in runs]
        tree = [r["tree"]["metrics"][name] for r in runs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(sign * (b - t) > 0 for b, t in zip(base, tree))
        losses = sum(sign * (t - b) > 0 for b, t in zip(base, tree))
        bq, tq = quartiles(base), quartiles(tree)
        gain = (
            outcomes_hold
            and len(runs) >= 10
            and wins >= 0.9 * len(runs)
            and sign * (bq[1] - tq[1]) > bq[2] - bq[0]
        )
        out[name] = {
            "better": better.get(name, "lower"),
            "base_q1_median_q3": bq,
            "tree_q1_median_q3": tq,
            "tree_wins": wins,
            "base_wins": losses,
            "gain": gain,
        }
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--ops-child"]:
        return ops_child(*argv[1:])
    args = parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base_root = export(args.base, workdir)
    print(f"base {args.base} exported to {base_root}", flush=True)
    roots = {"base": base_root, "tree": ROOT}
    envs = {side: bytecode_env(root, side, workdir, args) for side, root in roots.items()} if args.pairs else {}
    runs = []
    for pair in range(args.pairs):
        order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
        record = {"pair": pair + 1, "first": order[0]}
        for side in order:
            record[side] = run_once(roots[side], envs[side], args)
        runs.append(record)
        b, t = record["base"], record["tree"]
        print(
            f"pair {pair + 1} ({order[0]} first): correct {b['correct']}/{t['correct']}, "
            f"failed {b['failed']}/{t['failed']} of {b['attempted']}, "
            f"passes {b['passes']}/{t['passes']}",
            flush=True,
        )
        for name in sorted(b["metrics"]):
            if name in t["metrics"]:
                print(f"  {name}: base {b['metrics'][name]:.6g}  tree {t['metrics'][name]:.6g}", flush=True)
    summary = summarize(runs, args.better)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, {len(runs)} pairs: q1 / median / q3")
    for name, s in summary.items():
        bq, tq = s["base_q1_median_q3"], s["tree_q1_median_q3"]
        print(
            f"  {name} ({s['better']} is better): base {bq[0]:.6g} / {bq[1]:.6g} / {bq[2]:.6g}"
            f"  tree {tq[0]:.6g} / {tq[1]:.6g} / {tq[2]:.6g}"
            f"  tree wins {s['tree_wins']}/{len(runs)}{'  GAIN' if s['gain'] else ''}"
        )
    if runs:
        passes = {side: statistics.median(r[side]["passes"] for r in runs) for side in ("base", "tree")}
        print(f"  passes per run (median): base {passes['base']:g}  tree {passes['tree']:g}")
    final = {
        "base": args.base, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "runs": runs, "summary": summary,
    }
    if args.ops:
        ops = {side: count_ops(roots[side], args) for side in ("base", "tree")}
        rows = [
            (kind, ops["tree"][kind]["items"], ops["base"][kind]["instructions"], ops["tree"][kind]["instructions"])
            for kind in sorted(ops["base"])
        ]
        total = {side: sum(row["instructions"] for row in ops[side].values()) for side in ("base", "tree")}
        rows.append(("total", sum(row[1] for row in rows), total["base"], total["tree"]))
        print(f"{args.workload}, seed {args.seed}: executed bytecode instructions, one untraced pass")
        for kind, items, b, t in rows:
            print(f"  {kind} ({items} items): base {b}  tree {t}  tree/base {t / b:.4f}")
        final["ops"] = {**ops, "total": total}
    print(json.dumps(final))
    if args.out:
        args.out.write_text(json.dumps({"meta": metadata(args.base), **final}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
