"""Seeded benchmark of the qlam workbench; see perfbench/README.md.

    python3 perfbench/run.py --workload nf-distances --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports qlam from its src/.
Set-up is timed in fresh interpreters; the workload's fixed item list
runs pass after pass while another pass fits in --seconds.  Every answer
is checked.  The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The line before it holds the run's metadata.

The modules that import qlam (layers, answers and the workloads) are
imported inside functions, once import_program() has put src/ on the
path.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "nf-distances": "wl_nf_distances",
    "cl-proofs": "wl_cl_proofs",
    "finite-models": "wl_finite_models",
}
DEFAULT_SEED = 1  # the goldens are frozen for this seed
SETUP_PROBES = 9
# tail percentile: the highest of these with at least 10 items beyond it
LADDER = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(
        "--freeze-golden",
        action="store_true",
        help="run one pass at the default seed and write the workload's golden",
    )
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; None if it has no qlam."""
    src = ROOT / "src"
    if not (src / "qlam" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qlam.cli

    import_s = time.perf_counter() - start
    if Path(qlam.cli.__file__).resolve().parents[1] != src:
        return None
    return import_s


@contextmanager
def workdir():
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    """One run of the item list: timings, and answers until settled."""

    traced: bool
    begin: float
    wall: float
    times: list[float]
    answers: list | None
    errors: dict[int, str]  # item -> exception type
    layers: object
    digests: list = field(default_factory=list)
    wrong: dict[int, str] = field(default_factory=dict)


def run_pass(wl, items, ctx, traced: bool) -> Pass:
    from layers import Layers

    layers = Layers(traced)
    state = wl.new_pass(ctx)
    runners = wl.RUNNERS
    times: list[float] = []
    answers: list = []
    errors: dict[int, str] = {}
    clock = time.perf_counter
    gc.collect()
    begin = clock()
    for index, (kind, payload) in enumerate(items):
        layers.item = index
        start = clock()
        try:
            answer = runners[kind](layers, state, payload)
        except Exception as exc:
            answer = None
            errors[index] = type(exc).__name__
        end = clock()
        times.append(end - start)
        answers.append(answer)
        if traced:
            layers.spans.append((index, "item", start, end))
    wall = clock() - begin
    return Pass(traced, begin, wall, times, answers, errors, layers)


def item_digests(wl, items, p: Pass) -> list:
    from answers import digest

    return [
        None if ans is None else digest(kind + "|" + wl.encode(kind, ans))
        for (kind, _), ans in zip(items, p.answers)
    ]


def percentile(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def tail_percentile(n: int) -> float:
    for q in LADDER:
        if n - math.ceil(q / 100 * n) >= TAIL_BEYOND:
            return q
    raise ValueError(f"{n} items are too few for a tail percentile")


def latency(p: Pass, tail_q: float, failed: set[int]) -> tuple[float, float, bool]:
    """(p50, tail) in seconds.  A failed item (raised or wrong) ranks
    above every success; should a percentile land on one, the pass's
    slowest item stands in."""
    ranked = sorted(math.inf if i in failed else t for i, t in enumerate(p.times))
    slowest = max(p.times)
    p50, tail = percentile(ranked, 50), percentile(ranked, tail_q)
    on_failure = math.isinf(tail) or math.isinf(p50)
    return (slowest if math.isinf(p50) else p50), (slowest if math.isinf(tail) else tail), on_failure


# ---------------------------------------------------------------------------
# Set-up in fresh interpreters


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning an interpreter until it is ready for its
    first timed item, and the part of it spent importing qlam.cli."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {code}")
    return ready - start, json.loads(line)["import_s"]


def setup_probe(args, import_s: float) -> int:
    from layers import Layers

    wl = importlib.import_module(WORKLOADS[args.workload])
    with workdir() as wd:
        items, ctx = wl.setup(args.seed, wd)
        Layers(False)
        wl.new_pass(ctx)
        print(json.dumps({"import_s": import_s, "items": len(items)}), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Metadata


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# Checking


def settle(wl, items, p: Pass, first: bool) -> None:
    """Digest a pass's answers, check them if it is the first, and drop
    them, so that passes do not pile up live objects for the collector."""
    p.digests = item_digests(wl, items, p)
    p.wrong = wl.check(items, p.answers) if first else {}
    p.answers = None


def check_answers(wl, items, passes: list[Pass], seed: int):
    """Failed items (raised or wrong), whether the run is correct, notes."""
    from answers import items_digest, load_golden

    digests = passes[0].digests
    wrong = dict(passes[0].wrong)
    for p in passes[1:]:
        for index, d in enumerate(p.digests):
            if d != digests[index]:
                wrong.setdefault(index, "answer differs between passes")
    notes = {"items_digest": items_digest(items)}
    golden = load_golden(wl.NAME) if seed == DEFAULT_SEED else None
    if golden is None:
        notes["golden"] = "not checked" if seed != DEFAULT_SEED else "missing"
    elif golden["items_digest"] != notes["items_digest"]:
        notes["golden"] = "stale: the item list changed"
    else:
        notes["golden"] = "checked"
        for index, (want, got) in enumerate(zip(golden["item_digests"], digests)):
            if want is not None and got is not None and want != got:
                wrong.setdefault(index, "answer differs from the golden")
    raised = {}
    for p in passes:
        raised.update(p.errors)
    unexpected = [
        i for i, exc in raised.items() if (items[i][0], exc) not in wl.EXPECTED_FAILURES
    ]
    failures = [
        {"id": i, "kind": items[i][0], "error": raised.get(i) or wrong[i]}
        for i in sorted(set(raised) | set(wrong))
    ]
    correct = not wrong and not unexpected and notes["golden"] in ("checked", "not checked")
    return failures, correct, notes


def declared_metrics(trace: int):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Metrics


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def end_to_end(passes, tail_q, setup_times, failed: set[int]) -> tuple[dict, dict]:
    """Timings are the lower quartile over the passes: slow phases of a
    shared machine only ever add time.  Set-up is the median of the
    probes."""
    lat = [latency(p, tail_q, failed) for p in passes]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (lower_quartile([p.wall for p in passes]), "s"),
        "item_p50_ms": (1000 * lower_quartile([x[0] for x in lat]), "ms"),
        "item_tail_ms": (1000 * lower_quartile([x[1] for x in lat]), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "pass_p50_ms": [1000 * x[0] for x in lat],
        "pass_tail_ms": [1000 * x[1] for x in lat],
        "tail_on_failure": any(x[2] for x in lat),
    }
    return values, extra


def per_layer(untraced, traced, import_times, attempted, failed) -> dict:
    from layers import COUNTS, MODULES, ratio_metrics

    # the traced pass nearest the lower quartile, as for the timings
    traced_q = lower_quartile([p.wall for p in traced])
    chosen = min(traced, key=lambda p: abs(p.wall - traced_q))
    layers = chosen.layers
    busy = layers.busy()
    values: dict[str, tuple[float, str]] = {}
    for label, (calls, seconds) in busy.items():
        values[f"{label}.calls"] = (calls, "count")
        values[f"{label}.busy_s"] = (seconds, "s")
    for module in MODULES:
        values[f"{module}.failed"] = (layers.counts.get(f"{module}.failed", 0), "count")
    for name in COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        values[name] = (layers.counts.get(name, 0), unit)
    for name, value in ratio_metrics(layers.counts, busy).items():
        values[name] = (value, "1")
    values["cli.import_s"] = (statistics.median(import_times), "s")
    values["bench.glue_s"] = (chosen.wall - sum(s for _, s in busy.values()), "s")
    values["trace.overhead_s"] = (traced_q - lower_quartile([p.wall for p in untraced]), "s")
    values["failed_ratio"] = (failed / attempted, "1")
    return values


def write_trace(workload, seed, traced) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    passes = []
    for p in traced:
        spans = [[i, label, s - p.begin, e - p.begin] for i, label, s, e in p.layers.spans]
        passes.append({"wall_s": p.wall, "spans": spans})
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": passes}), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    # on SIGTERM, unwind so that the work directory is removed and the
    # running probe is waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    import_s = import_program()
    if import_s is None:
        print(f"error: no qlam package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, import_s)
    if args.freeze_golden:
        return freeze_golden(args.workload)

    declared = declared_metrics(args.trace)
    wl = importlib.import_module(WORKLOADS[args.workload])
    probes: list[tuple[float, float]] = []
    with workdir() as wd:
        items, ctx = wl.setup(args.seed, wd)
        passes: list[Pass] = []
        start = time.perf_counter()
        # a probe before each pass spreads them over the run's machine
        # phases; another pass only if one more as long as the last fits
        while len(passes) < 1 + args.trace or (
            time.perf_counter() - start + passes[-1].wall <= args.seconds
        ):
            if len(probes) < SETUP_PROBES:
                probes.append(probe_setup(args.workload, args.seed))
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(wl, items, ctx, traced))
            settle(wl, items, passes[-1], first=len(passes) == 1)
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))
    failures, correct, notes = check_answers(wl, items, passes, args.seed)
    for f in failures:
        print(f"failed item {f['id']} ({f['kind']}): {f['error']}", file=sys.stderr)

    untraced = [p for p in passes if not p.traced]
    tail_q = tail_percentile(len(items))
    attempted, failed = len(items), len(failures)
    meta = {
        **metadata(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": attempted,
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "tail_percentile": tail_q,
        "tail_items_beyond": attempted - math.ceil(tail_q / 100 * attempted),
        "setup_probes_s": [s for s, _ in probes],
        "failures": failures,
        **notes,
    }
    if args.trace:
        traced = [p for p in passes if p.traced]
        values = per_layer(untraced, traced, [i for _, i in probes], attempted, failed)
        meta["trace_file"] = str(write_trace(args.workload, args.seed, traced).relative_to(ROOT))
    else:
        failed_ids = {f["id"] for f in failures}
        values, extra = end_to_end(untraced, tail_q, [s for s, _ in probes], failed_ids)
        meta.update(extra)
    printed = {name: unit for name, (_, unit) in values.items()}
    if declared is not None and printed != declared:
        diff = sorted(set(printed.items()) ^ set(declared.items()))
        print(f"error: metrics {diff} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def freeze_golden(workload: str) -> int:
    from answers import write_golden

    wl = importlib.import_module(WORKLOADS[workload])
    with workdir() as wd:
        items, ctx = wl.setup(DEFAULT_SEED, wd)
        p = run_pass(wl, items, ctx, traced=False)
    wrong = wl.check(items, p.answers)
    unexpected = {i: e for i, e in p.errors.items() if (items[i][0], e) not in wl.EXPECTED_FAILURES}
    if wrong or unexpected:
        print(f"error: not freezing; wrong {wrong}, raised {unexpected}", file=sys.stderr)
        return 1
    path = write_golden(workload, DEFAULT_SEED, items, item_digests(wl, items, p))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
