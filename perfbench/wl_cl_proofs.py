"""cl-proofs: a few large terms and derivations.

Drives the combinatory side of rewrite_engine, all of quant_deduction
and term_syntax's parse, print, typecheck and JSON on big terms.  Never
touches term_metrics or finite_models.

Most items are criterion-06 bracket-simulation problems (t of depth 1-5
over x, y, z; u of depth 0-3 over y, z; fuel 20000): parse, print and
parse again; bracket-abstract x out of t; reduce (Lambda x. t) u and
t[x:=u]; derive that the two meet and check the derivation; send it
through JSON and check the copy.  Their cost is heavy-tailed: a few
problems whose reducts grow under S cost a hundred times the median.
So that one seed does not draw many more of those than another, the
benchmark reduces every candidate with its own reference reducer and
fills a fixed quota per quarter-octave of predicted cost (the QUOTAS table);
a candidate beyond the last bin is not drawn.  The reference reducer's
result and step counts also check the program's answers.

The rest are deep spines ``x x ... x`` with 100 to 10,000 arguments,
log-uniform and stratified, through parse, typecheck, normalize,
cl_reduce, print and a term-JSON round trip.  Spines of about 1,000
arguments or more raise RecursionError in typecheck's recursion (ROADMAP
item 2); they count as failed items, and are the only failures allowed.
"""

from __future__ import annotations

import json
import math
import random
import sys

from qlam.quant_deduction import builtin_theory
from qlam.term_syntax import STAR, App, Signature, Var

from answers import digest, encode_term

NAME = "cl-proofs"
FUEL = 20000
# the reference reducer gives up past this cost proxy, far beyond the
# last quota bin
PROXY_LIMIT = 2**16
BINS_PER_OCTAVE = 4
SPINES = 6
EXPECTED_FAILURES = {("spine", "RecursionError")}

# quarter-octave bin of the cost proxy -> items per pass: calibrate() over
# 100000 candidates of seed 0, scaled to 294 items; bins whose share
# rounds to nothing are dropped, which leaves 293 items and caps the
# proxy below 2^13
QUOTAS = {
    8: 10, 10: 57, 12: 39, 13: 20, 14: 18, 15: 14, 16: 12, 17: 6, 18: 3, 19: 3,
    20: 7, 21: 8, 22: 4, 23: 4, 24: 4, 25: 3, 26: 3, 27: 4, 28: 6, 29: 4,
    30: 4, 31: 3, 32: 4, 33: 4, 34: 4, 35: 4, 36: 4, 37: 4, 38: 4, 39: 4,
    40: 4, 41: 3, 42: 3, 43: 3, 44: 2, 45: 2, 46: 2, 47: 2, 48: 1, 49: 1,
    50: 1, 51: 1,
}


def random_cl(rng: random.Random, names: list[str], depth: int):
    """The criterion-06 generator over tuples: a leaf is a name, an
    application is a (fn, arg) pair."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(names + ["I", "K", "S"])
    return (random_cl(rng, names, depth - 1), random_cl(rng, names, depth - 1))


def surface(t) -> str:
    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        node, prec = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, tuple):
            if prec >= 2:
                out.append("(")
                stack.append((")", None))
            stack.append((node[1], 2))
            stack.append((" ", None))
            stack.append((node[0], 1))
    return "".join(out)


def _encode(t) -> str:
    """The same prefix encoding answers.encode_term gives the program's
    untyped terms."""
    out: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            out.append("@")
            stack.append(node[1])
            stack.append(node[0])
        else:
            out.append(("c:" if node in "IKS" else "v:") + node + ":*")
    return " ".join(out)


def _size(t) -> int:
    n, stack = 0, [t]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, tuple):
            stack.extend(node)
    return n


def _occurs(x: str, t) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif node == x:
            return True
    return False


def abstract(x: str, t):
    """Bracket abstraction by the rules rewrite_engine uses: I, K t, S."""
    if t == x:
        return "I"
    if not _occurs(x, t):
        return ("K", t)
    return (("S", abstract(x, t[0])), abstract(x, t[1]))


def substitute(t, x: str, u):
    if isinstance(t, tuple):
        return (substitute(t[0], x, u), substitute(t[1], x, u))
    return u if t == x else t


def _contract(t):
    args = []
    head = t
    while isinstance(head, tuple):
        args.append(head[1])
        head = head[0]
    args.reverse()
    if head == "I" and len(args) == 1:
        return args[0]
    if head == "K" and len(args) == 2:
        return args[0]
    if head == "S" and len(args) == 3:
        x, y, z = args
        return ((x, z), (y, z))
    return None


def reduce(t):
    """Leftmost-outermost weak reduction, as rewrite_engine.cl_reduce
    does it.  Returns (result, steps, gave_up, cost proxy); the proxy
    sums, over the steps, the term size times the redex depth plus one,
    which tracks the size of the derivation that replays the steps.  It
    gives up when the fuel or PROXY_LIMIT runs out."""
    steps = proxy = 0
    while True:
        stack = [(t, ())]
        found = None
        while stack:
            node, path = stack.pop()
            contractum = _contract(node)
            if contractum is not None:
                found = (path, contractum)
                break
            if isinstance(node, tuple):
                stack.append((node[1], path + (1,)))
                stack.append((node[0], path + (0,)))
        if found is None:
            return t, steps, False, proxy
        if steps >= FUEL or proxy > PROXY_LIMIT:
            return t, steps, True, proxy
        path, contractum = found
        proxy += _size(t) * (len(path) + 1)
        steps += 1
        t = _replace(t, path, contractum)


def _replace(t, path, new):
    if not path:
        return new
    if path[0] == 0:
        return (_replace(t[0], path[1:], new), t[1])
    return (t[0], _replace(t[1], path[1:], new))


def candidate(rng: random.Random):
    """One bracket-simulation problem and its reference answer."""
    t = random_cl(rng, ["x", "y", "z"], rng.randint(1, 5))
    u = random_cl(rng, ["y", "z"], rng.randint(0, 3))
    left = reduce((abstract("x", t), u))
    right = reduce(substitute(t, "x", u))
    proxy = left[3] + right[3]
    if left[2] or right[2]:
        proxy = math.inf
    return t, u, left, right, proxy


def cost_bin(proxy: float) -> int:
    return int(BINS_PER_OCTAVE * math.log2(proxy + 1)) if proxy != math.inf else -1


def calibrate(candidates: int = 100000, items: int = 294, seed: int = 0) -> dict[int, int]:
    rng = random.Random(seed)
    counts: dict[int, int] = {}
    for _ in range(candidates):
        b = cost_bin(candidate(rng)[4])
        counts[b] = counts.get(b, 0) + 1
    quotas = {b: round(items * n / candidates) for b, n in sorted(counts.items()) if b >= 0}
    return {b: q for b, q in quotas.items() if q > 0}


def setup(seed: int, workdir) -> tuple[list, dict]:
    rng = random.Random(seed)
    need = dict(QUOTAS)
    items: list = []
    drawn = 0
    while any(need.values()):
        drawn += 1
        if drawn > 200 * sum(QUOTAS.values()):
            raise RuntimeError("quota table cannot be filled from this generator")
        t, u, left, right, proxy = candidate(rng)
        b = cost_bin(proxy)
        if need.get(b, 0) == 0:
            continue
        need[b] -= 1
        items.append(["cl", [surface(t), surface(u), left[1], right[1], digest(_encode(left[0]))]])
    for i in range(SPINES):
        n = round(10 ** (2 + 2 * (i + rng.random()) / SPINES))
        items.append(["spine", [" ".join(["x"] * (n + 1)), n]])
    rng.shuffle(items)
    sig = Signature(untyped=True)
    return items, {"sig": sig, "theory": builtin_theory("U_CL", sig), "x": Var("x", STAR)}


def new_pass(ctx: dict) -> dict:
    return ctx


def run_cl(L, st, p):
    sig, th = st["sig"], st["theory"]
    t = L.parse(p[0], sig)
    t2 = L.parse(L.print(t), sig)
    u = L.parse(p[1], sig)
    lam = L.bracket_abstract(st["x"], t2)
    lhs = L.cl_reduce(App(lam, u), fuel=FUEL)
    rhs = L.cl_reduce(L.substitute(t2, {"x": u}), fuel=FUEL)
    L.count("rewrite_engine.cl_steps", lhs.step_count + rhs.step_count)
    L.count("rewrite_engine.out_of_fuel", lhs.out_of_fuel + rhs.out_of_fuel)
    d = L.derive(lhs, rhs, th)
    ok = L.check(d, th).ok
    text = json.dumps(L.to_json(d))
    copy = L.from_json(json.loads(text))
    copy_ok = L.check(copy, th).ok
    if L.traced:
        L.count("quant_deduction.json_bytes", len(text))
        L.count("quant_deduction.nodes_checked", 2 * text.count('"rule": '))
    return (t, t2, lhs, rhs, ok, copy_ok, d.conclusion, copy.conclusion)


def run_spine(L, st, p):
    sig = st["sig"]
    t = L.parse(p[0], sig)
    sort = L.typecheck(t, sig)
    nf = L.normalize(t, FUEL)
    red = L.cl_reduce(t, fuel=FUEL)
    L.count("rewrite_engine.cl_steps", red.step_count)
    L.count("rewrite_engine.out_of_fuel", red.out_of_fuel)
    printed = L.print(t)
    copy = L.term_from_json(L.term_to_json(t))
    return (sort is STAR, t, nf.term, red.step_count, red.result, printed, copy)


RUNNERS = {"cl": run_cl, "spine": run_spine}


def _cl_fields(ans) -> list:
    t, t2, lhs, rhs, ok, copy_ok, concl, copy_concl = ans
    return [
        encode_term(t) == encode_term(t2),
        lhs.step_count,
        rhs.step_count,
        lhs.out_of_fuel or rhs.out_of_fuel,
        digest(encode_term(lhs.result)),
        digest(encode_term(rhs.result)),
        ok,
        copy_ok,
        concl == copy_concl,
    ]


def _spine_fields(ans) -> list:
    star, t, nf, steps, result, printed, copy = ans
    enc = encode_term(t)
    return [
        star,
        digest(enc),
        enc == encode_term(nf),
        steps,
        enc == encode_term(result),
        digest(printed),
        enc == encode_term(copy),
    ]


def encode(kind: str, answer) -> str:
    fields = _cl_fields(answer) if kind == "cl" else _spine_fields(answer)
    return "|".join(str(f) for f in fields)


def check(items: list, answers: list) -> dict[int, str]:
    wrong: dict[int, str] = {}
    for index, ((kind, p), ans) in enumerate(zip(items, answers)):
        if ans is None:
            continue
        if kind == "cl":
            roundtrip, steps_l, steps_r, fuel_out, res_l, res_r, ok, copy_ok, same = _cl_fields(ans)
            if not roundtrip:
                wrong[index] = "print/parse round trip changed the term"
            elif fuel_out or res_l != res_r:
                wrong[index] = "the reductions do not meet"
            elif (steps_l, steps_r, res_l) != (p[2], p[3], p[4]):
                wrong[index] = "reduction differs from the reference reducer"
            elif not (ok and copy_ok and same):
                wrong[index] = "derivation or its JSON copy does not check"
        else:
            n = p[1]
            star, enc_digest, nf_same, steps, red_same, printed, json_same = _spine_fields(ans)
            expect = " ".join(["@"] * n + ["v:x:*"] * (n + 1))
            if not star or enc_digest != digest(expect):
                wrong[index] = "spine parsed or typed wrongly"
            elif not (nf_same and red_same and steps == 0 and json_same):
                wrong[index] = "a normal spine changed under normalize, cl_reduce or JSON"
            elif printed != digest(p[0]):
                wrong[index] = "print_term differs from the source"
    return wrong


if __name__ == "__main__":
    if sys.argv[1:] == ["--calibrate"]:
        print(calibrate())
