"""finite-models: small terms interpreted in finite algebras.

Carriers and distance tables dominate.  Drives finite_models,
metric_core, corpus and cli; reaches term_metrics only through the six
repro scenarios.  Each pass builds a fresh harness corpus and runs the
soundness harness on its five theory blocks, then a seeded, fixed-size
mix: full type structures on 1-3-point bases, the four hom-distances on
shift-map grids, exponentiability (both modes) and classification of
line grids, and the CLI verbs harness, repro, exp-check and hom-dist run
in-process on JSON files written at set-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

from click.testing import CliRunner

from qlam.cli import SCENARIOS
from qlam.metric_core import enumerate_nonexpansive

from answers import digest

NAME = "finite-models"
BLOCKS = 5
HARNESS_TOTALS = {"satisfied": 64, "skipped": 7, "violated": 0}
DISTANCES = ("1/2", "1", "3/2", "2")
# ranks of (d01, d02, d12) on a 3-point base.  The carriers, and so the
# cost of building them, depend only on this weak order (all equal gives
# 27 maps at o->o, all distinct far fewer), so every pass has two bases
# of each; the seed picks the values and which pair gets which.
PATTERNS3 = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2))
STEP = F(1, 4)

EXPECTED_FAILURES: set = set()


def _grid(lo: F, hi: F, step: F) -> list[F]:
    return [lo + i * step for i in range(int((hi - lo) / step) + 1)]


def _space_json(points: list[F]) -> dict:
    return {"points": [str(p) for p in points], "dist": [[str(abs(p - q)) for q in points] for p in points]}


def _write(workdir, name: str, data) -> str:
    (workdir / name).write_text(json.dumps(data), encoding="utf-8")
    return "@" + name


def setup(seed: int, workdir) -> tuple[list, dict]:
    rng = random.Random(seed)
    mix: list = []
    for npts in (1, 2, 3):
        sorts = ["o->o", "o->o->o"] + (["(o->o)->o"] if npts < 3 else [])
        for n in range(8):
            ranks = PATTERNS3[n % len(PATTERNS3)] if npts == 3 else (0,) * (npts * (npts - 1) // 2)
            values = sorted(rng.sample(DISTANCES, max(ranks, default=0) + 1), key=F)
            pair_values = [values[r] for r in ranks]
            rng.shuffle(pair_values)
            rows = [["0"] * npts for _ in range(npts)]
            pairs = [(i, j) for i in range(npts) for j in range(i + 1, npts)]
            for (i, j), v in zip(pairs, pair_values):
                rows[i][j] = rows[j][i] = v
            mix.append(["fts", [[f"p{i}" for i in range(npts)], rows, sorts]])
    for _ in range(2):
        for m in (2, 4, 8, 16):
            for kind in ("phi", "xi", "xi_prime", "theta"):
                mix.append(["hom", [m, rng.choice(("1/4", "1/2", "1")), kind]])
        for j in range(5):
            lo = rng.randint(-2, 2)
            for op in ("full", "image_restricted", "classify"):
                mix.append(["grid", [lo, j, op]])
    mix.append(["cli", [["harness"], None]])
    mix += [["cli", [["repro", name], None]] for name in sorted(SCENARIOS)]
    for n in range(4):
        lo, j = F(rng.randint(-2, 2)), rng.randint(0, 3)
        mode = rng.choice(("full", "image_restricted"))
        space = _write(workdir, f"grid{n}.json", _space_json(_grid(lo, lo + 1, F(1, 2**j))))
        mix.append(["cli", [["exp-check", space, "--mode", mode], mode]])
    for n in range(4):
        m, k = F((2, 4)[n % 2]), F(rng.choice(("1/4", "1/2", "1")))
        kind = rng.choice(("phi", "xi"))
        dom, cod = _grid(F(0), m, STEP), _grid(F(0), m + k, STEP)
        files = [
            _write(workdir, f"hom{n}_dom.json", _space_json(dom)),
            _write(workdir, f"hom{n}_cod.json", _space_json(cod)),
            _write(workdir, f"hom{n}_f.json", [str(p) for p in dom]),
            _write(workdir, f"hom{n}_g.json", [str(p + k) for p in dom]),
        ]
        mix.append(["cli", [["hom-dist", "--kind", kind] + files, str(m + k if kind == "xi" else k)]])
    rng.shuffle(mix)
    items = [["build", []]] + [["harness", [b]] for b in range(BLOCKS)] + mix
    return items, {"runner": CliRunner(), "workdir": workdir}


def new_pass(ctx: dict) -> dict:
    return dict(ctx)


def run_build(L, st, p):
    st["blocks"] = L.build()
    return [(th.name, len(derivs), len(algs)) for th, derivs, algs in st["blocks"]]


def run_harness(L, st, p):
    records = L.harness(*st["blocks"][p[0]])
    for r in records:
        L.count("finite_models.records_" + r["status"].split(":")[0])
    return records


def run_fts(L, st, p):
    points, rows, sort_texts = p
    base = L.space_from_json({"points": points, "dist": rows})
    sorts = [L.parse_sort(s) for s in sort_texts]
    alg = L.build_fts(base, sorts)
    sizes = [len(alg.carrier(s)) for s in sorts]
    L.count("finite_models.carrier_elems", sum(sizes))
    return sizes, base


def run_hom(L, st, p):
    m, k, kind = p
    a, b, f, g = L.shift_maps(F(m), F(k), STEP)
    L.count("metric_core.points", a.size + b.size)
    return L.hom_distance(kind, a, b, f, g).render()


def run_grid(L, st, p):
    lo, j, op = p
    space = L.line_grid(F(lo), F(lo + 1), F(1, 2**j))
    L.count("metric_core.points", space.size)
    if op == "classify":
        return L.classify(space).to_json()
    result = L.exp_check(space, op)
    return result.ok, result.to_json()


def run_cli(L, st, p):
    args = [str(st["workdir"] / a[1:]) if a.startswith("@") else a for a in p[0]]
    result = L.invoke(st["runner"], args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code, result.output


RUNNERS = {
    "build": run_build,
    "harness": run_harness,
    "fts": run_fts,
    "hom": run_hom,
    "grid": run_grid,
    "cli": run_cli,
}


def encode(kind: str, answer) -> str:
    if kind == "fts":
        return json.dumps(answer[0])
    if kind == "cli":
        return f"{answer[0]}|{digest(answer[1])}"
    return digest(json.dumps(answer, sort_keys=True))


def _status_totals(records) -> dict[str, int]:
    totals = dict.fromkeys(HARNESS_TOTALS, 0)
    for r in records:
        key = r["status"].split(":")[0]
        totals[key] = totals.get(key, 0) + 1
    return totals


def check(items: list, answers: list) -> dict[int, str]:
    wrong: dict[int, str] = {}
    harness: dict[int, list] = {}
    for index, ((kind, p), ans) in enumerate(zip(items, answers)):
        if ans is None:
            continue
        if kind == "harness":
            harness[index] = ans
        elif kind == "fts":
            sizes, base = ans
            if sizes[0] != len(enumerate_nonexpansive(base, base)):
                wrong[index] = "o->o carrier is not the non-expansive maps"
        elif kind == "hom":
            m, k, kind_ = p
            want = {"phi": F(k), "xi": m + F(k)}.get(kind_)
            if want is not None and F(ans) != want:
                wrong[index] = f"{kind_}={ans}, want {want}"
        elif kind == "grid":
            op = p[2]
            if op == "classify":
                if not (ans["premetric"] and ans["metric"]):
                    wrong[index] = "a line grid is a metric space"
            elif ans[0] != (op == "image_restricted"):
                wrong[index] = f"line grid {'passes' if ans[0] else 'fails'} {op}"
        elif kind == "cli":
            args, want = p
            code, output = ans
            if code != 0:
                wrong[index] = f"exit code {code}"
            elif args[0] == "harness":
                records = [json.loads(line) for line in output.splitlines()]
                if _status_totals(records) != HARNESS_TOTALS:
                    wrong[index] = f"qlam harness gave {_status_totals(records)}"
            elif args[0] == "repro":
                if json.loads(output).get("status") != "PASS":
                    wrong[index] = "repro does not PASS"
            elif args[0] == "exp-check":
                if json.loads(output)["ok"] != (want == "image_restricted"):
                    wrong[index] = f"exp-check --mode {want} gave {output.strip()}"
            elif F(json.loads(output)["value"]) != F(want):
                wrong[index] = f"hom-dist gave {output.strip()}, want {want}"
    if len(harness) == BLOCKS:
        totals = _status_totals([r for records in harness.values() for r in records])
        if totals != HARNESS_TOTALS:
            for index in harness:
                wrong[index] = f"harness blocks gave {totals}"
    return wrong
