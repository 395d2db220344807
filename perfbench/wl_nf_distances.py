"""nf-distances: many small eta-long normal forms.

Drives term_metrics plus the NormalForm / projection path of
rewrite_engine and term_syntax.  Never touches finite_models or
quant_deduction, so it is the bypass workload for changes there.

Each pass enumerates the three criterion-07 corpora (the CORPUS_SPECS of
tests/test_acceptance.py, first 200 terms each), the o->o arguments of
criterion 09 and a constant-free corpus for fth_distance, then runs a
fixed mix of 501 seeded items: 300 e_distance, 75 project,
50 d^NF through one DnfContext per pass, 50 approximate-application
gaps and 26 fth_distance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qlam.term_metrics import DnfContext, e_distance, nf_depth
from qlam.term_syntax import App, parse_sort

from answers import digest, encode_term

NAME = "nf-distances"
KEEP = 200
BLOCK = 20  # neighbouring corpus indices drawn as one stratum
WITNESS_BUDGET = 12

# key, sort, budget, with constants c1:o and c2:o
ENUMERATIONS = (
    ("a", "(o->o)->o", 140, True),
    ("b", "(o->o)->o->o", 120, True),
    ("c", "o->(o->o)->o", 140, True),
    ("args", "o->o", 30, True),
    ("free", "(o->o)->o->o", 40, False),
)
CORPORA = ("a", "b", "c")
E_GROUPS = 75  # four e_distance items each
PROJECTS = 75
DNFS = 50
APPROXES = 50
FTH_PAIRS = 13  # two fth items each, one per argument order

EXPECTED_FAILURES: set = set()


def church_text(k: int) -> str:
    return "\\f:o->o. \\x:o. " + "f (" * k + "x" + ")" * k


def _design(cells: int, size: int, count: int) -> list[tuple[int, ...]]:
    """A fixed, seed-independent list of block tuples.  The enumeration
    orders terms by bottoms, then size, so a block of neighbouring
    indices holds terms of similar cost; the seed only picks the members
    of each block, and one seed cannot draw many more costly pairs than
    another."""
    rng = random.Random(0)
    return [tuple(rng.randrange(cells) for _ in range(size)) for _ in range(count)]


def _members(rng: random.Random, blocks: tuple[int, ...]) -> list[int]:
    """Distinct indices, one from each block of BLOCK neighbours."""
    while True:
        out = [b * BLOCK + rng.randrange(BLOCK) for b in blocks]
        if len(set(out)) == len(out):
            return out


def setup(seed: int, workdir) -> tuple[list, dict]:
    rng = random.Random(seed)
    cells = KEEP // BLOCK
    mix: list = []
    for g, blocks in enumerate(_design(cells, 3, E_GROUPS)):
        c = CORPORA[g % len(CORPORA)]
        i, j, k = _members(rng, blocks)
        for role, (x, y) in enumerate(((i, j), (j, k), (i, k), (k, i))):
            mix.append(["e", [g, role, c, x, y]])
    for n in range(PROJECTS):
        c = CORPORA[n % len(CORPORA)]
        block = n // len(CORPORA) % cells
        mix.append(["project", [c, _members(rng, (block,))[0], rng.random()]])
    for blocks in _design(cells, 2, DNFS):
        mix.append(["dnf", _members(rng, blocks)])
    for _ in range(APPROXES):
        mix.append(["approx", [rng.randrange(KEEP), rng.random(), rng.randint(0, 6)]])
    for p in range(FTH_PAIRS):
        refs = [
            ["church", rng.randint(0, 5)] if rng.random() < 0.3 else ["free", rng.random()]
            for _ in range(2)
        ]
        n_max = rng.choice((2, 3))
        mix += [["fth", [p, refs[0], refs[1], n_max]], ["fth", [p, refs[1], refs[0], n_max]]]
    rng.shuffle(mix)
    items = [["enumerate", list(spec)] for spec in ENUMERATIONS] + mix
    o = parse_sort("o")
    return items, {"consts": {"c1": o, "c2": o}}


def new_pass(ctx: dict) -> dict:
    return {
        "consts": ctx["consts"],
        "nfs": {},
        "church": {},
        "dnf": DnfContext(WITNESS_BUDGET, ctx["consts"]),
    }


def run_enumerate(L, st, p):
    key, sort_text, budget, with_consts = p
    terms, exhaustive = L.enumerate(
        L.parse_sort(sort_text), budget, st["consts"] if with_consts else None
    )
    L.count("term_metrics.nfs_enumerated", len(terms))
    st["nfs"][key] = terms[:KEEP]
    return len(terms), exhaustive, terms[:KEEP]


def run_e(L, st, p):
    _, _, c, i, j = p
    nfs = st["nfs"][c]
    return L.e_distance(nfs[i], nfs[j]).value


def run_project(L, st, p):
    c, i, u = p
    t = st["nfs"][c][i]
    depth = L.nf_depth(t.term)
    n = int(u * (depth + 2))
    return n, depth, t, L.project(t, n)


def run_dnf(L, st, p):
    i, j = p
    a, b = st["nfs"]["a"][i], st["nfs"]["a"][j]
    cert = L.dnf(st["dnf"], a, b)
    L.count("term_metrics.dnf_exact", cert.status == "exact")
    return cert.value.value, cert.status, a, b


def run_approx(L, st, p):
    fi, u, n = p
    f = st["nfs"]["b"][fi]
    args = st["nfs"]["args"]
    g = args[int(u * len(args))]
    approx = L.approx_apply(f, g, n)
    full = L.normalize(App(f.term, g.term))
    return L.e_distance(approx, full).value, n, f, g, approx


def _fth_term(L, st, ref):
    kind, x = ref
    if kind == "free":
        free = st["nfs"]["free"]
        return free[int(x * len(free))]
    hit = st["church"].get(x)
    if hit is None:
        hit = st["church"][x] = L.normalize(L.parse(church_text(x)))
    return hit


def run_fth(L, st, p):
    _, left, right, n_max = p
    t, s = _fth_term(L, st, left), _fth_term(L, st, right)
    value, status = L.fth(t, s, n_max)
    L.count("term_metrics.fth_exhausted", status == "bound_exhausted")
    return value.render(), status, t, s


RUNNERS = {
    "enumerate": run_enumerate,
    "e": run_e,
    "project": run_project,
    "dnf": run_dnf,
    "approx": run_approx,
    "fth": run_fth,
}


def encode(kind: str, answer) -> str:
    if kind == "enumerate":
        n, exhaustive, kept = answer
        return f"{n}|{exhaustive}|" + digest("\n".join(encode_term(t.term) for t in kept))
    if kind == "e":
        return str(answer)
    if kind == "project":
        return f"{answer[0]}|{encode_term(answer[3].term)}"
    if kind == "dnf":
        return f"{answer[0]}|{answer[1]}"
    if kind == "approx":
        return f"{answer[0]}|{encode_term(answer[4].term)}"
    if kind == "fth":
        return f"{answer[0]}|{answer[1]}"
    raise ValueError(kind)


def _dyadic(v: Fraction) -> bool:
    return v == 0 or (v.numerator == 1 and v.denominator & (v.denominator - 1) == 0)


def check(items: list, answers: list) -> dict[int, str]:
    """Invariants that hold for every seed; index -> what is wrong."""
    wrong: dict[int, str] = {}
    groups: dict[int, list[tuple[int, int, Fraction]]] = {}
    fth_pairs: dict[int, list[tuple[int, str]]] = {}
    for index, ((kind, p), ans) in enumerate(zip(items, answers)):
        if ans is None:
            continue
        if kind == "enumerate":
            key, _, _, with_consts = p
            if key in CORPORA and ans[0] < KEEP:
                wrong[index] = f"only {ans[0]} normal forms"
            if not with_consts and any(" c:" in " " + encode_term(t.term) for t in ans[2]):
                wrong[index] = "constant in a constant-free enumeration"
        elif kind == "e":
            groups.setdefault(p[0], []).append((p[1], index, ans))
            if not _dyadic(ans) or ans == 0:
                wrong[index] = f"e={ans} for distinct terms"
        elif kind == "project":
            n, depth, t, proj = ans
            if n > depth and encode_term(proj.term) != encode_term(t.term):
                wrong[index] = "projection past the depth is not the identity"
            if n <= depth and nf_depth(proj.term) > n:
                wrong[index] = "projection deeper than its level"
        elif kind == "dnf":
            value, status, a, b = ans
            if status not in ("exact", "lower_bound") or not _dyadic(value):
                wrong[index] = f"bad certificate {value}/{status}"
            elif value < e_distance(a, b).value:
                wrong[index] = "d^NF below e"
        elif kind == "approx":
            gap, n, f, g, _ = ans
            if not _dyadic(gap):
                wrong[index] = f"gap {gap}"
            elif n >= max(nf_depth(f.term), nf_depth(g.term)) and gap != 0:
                wrong[index] = "approximate application did not converge"
        elif kind == "fth":
            value, status, t, s = ans
            fth_pairs.setdefault(p[0], []).append((index, ans[:2]))
            if status not in ("exact", "bound_exhausted"):
                wrong[index] = f"status {status}"
            elif encode_term(t.term) == encode_term(s.term) and value != "0":
                wrong[index] = "nonzero self-distance"
            elif {p[1][0], p[2][0]} == {"church"} and {p[1][1], p[2][1]} == {2, 4} and p[3] == 3:
                if (value, status) != ("1/2", "exact"):
                    wrong[index] = f"d(c2,c4)={value}/{status}"
    for members in groups.values():
        if len(members) != 4:
            continue
        (_, i_ij, d_ij), (_, i_jk, d_jk), (_, i_ik, d_ik), (_, i_ki, d_ki) = sorted(members)
        if d_ik != d_ki:
            wrong[i_ki] = "e is not symmetric"
        for idx, x, y, z in (
            (i_ij, d_ij, d_jk, d_ik),
            (i_jk, d_jk, d_ij, d_ik),
            (i_ik, d_ik, d_ij, d_jk),
        ):
            if x > max(y, z):
                wrong[idx] = "ultrametric inequality fails"
    for members in fth_pairs.values():
        if len(members) == 2 and members[0][1] != members[1][1]:
            wrong[members[1][0]] = "fth_distance is not symmetric"
    return wrong
