"""Acceptance gate: one test per advertised numeric claim.

Each test prints a single CRITERION line (visible with -s or on
failure) and asserts the claim exactly.  Where a claim is a negative
result (criteria 02 and 11), the test asserts the exact value or
witness that the definitions force, so a regression in the checked
function turns the line red.
"""

import random
from fractions import Fraction as F

from qlam.corpus import (
    FG,
    I01,
    O,
    OO,
    church,
    corpus_algebras,
    harness_corpus,
    remark25_terms,
    remark27_terms,
    remark25_space,
    shift_maps,
    theta_xi_maps,
)
from qlam.finite_models import satisfies_inference, soundness_harness
from qlam.metric_core import (
    ExtReal,
    FiniteMetricSpace,
    INF,
    ZERO,
    check_exponentiable,
    classify_space,
    hom_distance,
)
from qlam.quant_deduction import Inference, QuantEquation, check_derivation
from qlam.rewrite_engine import bracket_abstract, cl_reduce, normalize
from qlam.term_metrics import (
    approx_apply,
    dnf_distance,
    e_distance,
    enumerate_closed_nfs,
    fth_distance,
    nf_depth,
    project,
)
from qlam.term_syntax import (
    App,
    Bound,
    Const,
    Lam,
    STAR,
    Var,
    arrow,
    substitute,
)

CONSTS = {"c1": O, "c2": O}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1: pointwise distance of a shift is the shift; exponential distance
#    grows with the domain


def test_criterion_01_shift_distances():
    ok = True
    for k in (F(1, 4), F(1, 2), F(1)):
        a, b, f, g = shift_maps(F(10), k, F(1, 4))
        ok = ok and hom_distance("phi", a, b, f, g) == ExtReal(k)
    xis = []
    k = F(1, 2)
    for m in (F(1), F(2), F(4), F(8)):
        a, b, f, g = shift_maps(m, k, F(1, 4))
        xis.append(hom_distance("xi", a, b, f, g))
        ok = ok and xis[-1] == ExtReal(m + k)
    ok = ok and all(x < y for x, y in zip(xis, xis[1:]))
    report(1, ok, f"phi(id, shift-K)=K; xi on [0,M] grids = {[x.render() for x in xis]}")


# ---------------------------------------------------------------------------
# 2: diameter-style distance vs exponential distance on the broken-slope
#    pair f = id, g(x) = x for x <= 0 and x/2 for x > 0, from the step-1/8
#    grid of [-1,1] into the step-1/16 grid.  theta = b(f 1, g(-1)) = 2.  xi is
#    the least delta with b(f x, g y) <= max(a(x, y), delta): a pair can
#    break b(f x, g y) <= a(x, y) only when y > 0 and x > 3y/4, and then
#    b(f x, g y) = x - y/2 <= 1 - y/2.  On the grid y >= 1/8, so xi = 15/16,
#    reached at (1, 1/8) where b = 15/16 > a = 7/8 (in the continuum the
#    supremum is 1, as y -> 0+).  phi = max x/2 = 1/2, so phi <= xi < theta.


def _xi_by_definition(a, b, f, g):
    """Least delta in {0} ∪ {b-values} with b(f x, g y) <= max(a(x, y), delta)."""
    pairs = [
        (b.d_name(f.apply(x), g.apply(y)), a.d_name(x, y))
        for x in a.points
        for y in a.points
    ]
    for delta in sorted({ZERO} | b.values()):
        if all(bv <= max(av, delta) for bv, av in pairs):
            return delta
    return INF


def test_criterion_02_theta_vs_xi():
    a, b, f, g = theta_xi_maps()
    phi = hom_distance("phi", a, b, f, g)
    theta = hom_distance("theta", a, b, f, g)
    xi = hom_distance("xi", a, b, f, g)
    theta_ok = theta == ExtReal(F(2))
    xi_ok = xi == ExtReal(F(15, 16)) and xi == _xi_by_definition(a, b, f, g)
    x, y = "1", "1/8"
    b_xy = b.d_name(f.apply(x), g.apply(y))
    a_xy = a.d_name(x, y)
    pair_ok = b_xy == xi and a_xy < b_xy
    order_ok = phi <= xi < theta
    report(
        2,
        theta_ok and xi_ok and pair_ok and order_ok,
        f"theta={theta.render()} (want 2); xi={xi.render()} (want 15/16 = scan by "
        f"definition: {xi_ok}); pair ({x}, {y}): b={b_xy.render()} > a={a_xy.render()}: "
        f"{pair_ok}; phi={phi.render()} <= xi < theta: {order_ok}",
    )


# ---------------------------------------------------------------------------
# 3: pointwise closeness does not survive abstraction


def test_criterion_03_xi_failure_in_grid_algebra():
    alg = corpus_algebras()["ex15"]
    eps = F(1, 4)
    grid = [F(k, 8) for k in range(9)]
    pointwise_ok = all(abs(s - (s + eps)) <= eps for s in grid)
    arrow_dist = alg.dist(FG, alg.symbol("f", FG), alg.symbol("g", FG))
    dist_ok = arrow_dist == ExtReal(F(5, 4))

    f, g = Const("f", FG), Const("g", FG)
    x = Var("x", I01)
    lam_f = Lam("x", I01, App(f, Bound(0, I01)))
    lam_g = Lam("x", I01, App(g, Bound(0, I01)))
    sat = satisfies_inference(
        alg,
        Inference(frozenset(), QuantEquation(lam_f, lam_g, eps, lam_f.sort)),
    )
    hyp = QuantEquation(App(f, x), App(g, x), eps, App(f, x).sort, frozenset({x}))
    star = satisfies_inference(alg, Inference(frozenset(), hyp))
    refuted = not sat.satisfied and not star.satisfied
    witness_ok = star.counter_tuples is not None
    ok = pointwise_ok and dist_ok and refuted and witness_ok
    report(
        3,
        ok,
        f"pointwise<=1/4: {pointwise_ok}; arrow dist={arrow_dist.render()} (want 5/4); "
        f"sat refutes lambda-eq: {not sat.satisfied}; sat* witness: {star.counter_tuples}",
    )


# ---------------------------------------------------------------------------
# 4: the partial ultrametric on normal forms


def test_criterion_04_normal_form_partial_ultrametric():
    terms = remark25_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    c_ts = dnf_distance(t, s, constants=CONSTS)
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    c_app = dnf_distance(ut, us, constants=CONSTS)
    c_uu = dnf_distance(u, u, constants=CONSTS)
    values_ok = (
        c_ts.value.value == F(1, 2)
        and c_ts.status == "exact"
        and c_app.value.value == 1
        and c_uu.value.value == 1
    )
    witness_ok = c_uu.failing_witness is not None and {
        c_uu.failing_witness[0],
        c_uu.failing_witness[1],
    } == {t.term, s.term}
    cls = classify_space(remark25_space())
    cls_ok = cls.partial_ultrametric and not cls.metric
    ok = values_ok and witness_ok and cls_ok
    report(
        4,
        ok,
        f"d(t,s)={c_ts.value.render()}/{c_ts.status}, d(ut,us)={c_app.value.render()}, "
        f"d(u,u)={c_uu.value.render()} with (t,s) witness: {witness_ok}; "
        f"partial ultrametric, not metric: {cls_ok}",
    )


# ---------------------------------------------------------------------------
# 5: application is expansive for the projection-only distance


def test_criterion_05_application_expansive_for_e():
    terms = remark27_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    d1 = e_distance(t, s)
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    d2 = e_distance(ut, us)
    ok = d1.value == F(1, 4) and d2.value == 1
    report(5, ok, f"e(t,s)={d1.render()} (want 1/4); e(ut,us)={d2.render()} (want 1)")


# ---------------------------------------------------------------------------
# 6: bracket abstraction simulates substitution


def _random_cl(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(vars_ + ["I", "K", "S"])
        if name in ("I", "K", "S"):
            return Const(name, STAR)
        return Var(name, STAR)
    return App(_random_cl(rng, vars_, depth - 1), _random_cl(rng, vars_, depth - 1))


def test_criterion_06_bracket_simulation():
    rng = random.Random(271828)
    trials, hits = 1000, 0
    for _ in range(trials):
        t = _random_cl(rng, ["x", "y", "z"], rng.randint(1, 4))
        u = _random_cl(rng, ["y", "z"], rng.randint(0, 3))
        lam = bracket_abstract(Var("x", STAR), t)
        lhs = cl_reduce(App(lam, u), fuel=20000)
        rhs = cl_reduce(substitute(t, {"x": u}), fuel=20000)
        hits += (
            not lhs.out_of_fuel and not rhs.out_of_fuel and lhs.result == rhs.result
        )
    report(6, hits == trials, f"{hits}/{trials} reduction agreements")


# ---------------------------------------------------------------------------
# Shared corpus for 7 and 8: per-term projection sequences, compared via
# per-level grouping (structural term identity; hints excluded by
# construction)


CORPUS_SPECS = [
    (arrow(OO, O), 140),
    (arrow(OO, OO), 120),
    (arrow(O, arrow(OO, O)), 140),
]


def _level_ids(terms, max_level):
    """ids[n][i] identifies project(terms[i], n) up to equality."""
    ids = []
    for n in range(max_level + 1):
        table = {}
        row = []
        for t in terms:
            p = project(t, n).term
            row.append(table.setdefault(p, len(table)))
        ids.append(row)
    return ids


def _agreement_level(ids, max_level, i, j):
    m = -1
    for n in range(max_level + 1):
        if ids[n][i] != ids[n][j]:
            break
        m = n
    return m


import functools


@functools.lru_cache(maxsize=1)
def _corpora():
    out = []
    for sort, budget in CORPUS_SPECS:
        terms, _ = enumerate_closed_nfs(sort, budget, constants=CONSTS)
        assert len(terms) >= 200, (sort, len(terms))
        terms = terms[:200]
        # past every depth, projection is the identity, so agreement at
        # max_level certifies agreement at all levels
        max_level = max(nf_depth(t.term) for t in terms) + 1
        out.append((sort, terms, _level_ids(terms, max_level), max_level))
    return out


def test_criterion_07_e_distance_ultrametric_laws():
    import numpy as np

    rng = random.Random(1729)
    violations = 0
    checked_triples = 0
    for sort, terms, ids, max_level in _corpora():
        n = len(terms)
        lvl = np.full((n, n), max_level + 2, dtype=np.int16)
        for i in range(n):
            for j in range(i + 1, n):
                m = _agreement_level(ids, max_level, i, j)
                lvl[i, j] = lvl[j, i] = m
        # (refl): distance 0 on the diagonal
        violations += sum(e_distance(t, t).value != 0 for t in terms)
        # (symm) and value consistency on a random sample of pairs
        for _ in range(150):
            i, j = rng.randrange(n), rng.randrange(n)
            d_ij = e_distance(terms[i], terms[j]).value
            d_ji = e_distance(terms[j], terms[i]).value
            violations += d_ij != d_ji
            m = int(lvl[i, j])
            if i == j:
                want = F(0)
            elif m < 0:
                want = F(1)
            else:
                want = F(1, 2**m)
            violations += d_ij != want
        # (trans*) over all triples via agreement levels:
        # d(x,y) <= max(d(x,z), d(z,y))  <=>  lvl(x,y) >= min(lvl(x,z), lvl(z,y))
        for z in range(n):
            bound = np.minimum.outer(lvl[:, z], lvl[z, :])
            violations += int((lvl < bound).sum())
            checked_triples += n * n
    report(
        7,
        violations == 0,
        f"{violations} violations over {checked_triples} triples at 3 sorts",
    )


def test_criterion_08_projection_coherence():
    violations = 0
    for sort, terms, ids, max_level in _corpora():
        for n in range(8):
            # equality of level-(n+1) projections must refine level-n equality
            refinement = {}
            for i in range(len(terms)):
                prev = refinement.setdefault(ids[n + 1][i], ids[n][i])
                violations += prev != ids[n][i]
    report(8, violations == 0, f"{violations} coherence violations, n <= 8")


# ---------------------------------------------------------------------------
# 9: approximate application conditions


def test_criterion_09_approximate_application():
    rng = random.Random(6174)
    fn_sort = arrow(OO, OO)
    fns, _ = enumerate_closed_nfs(fn_sort, 110, constants=CONSTS)
    args, _ = enumerate_closed_nfs(OO, 30, constants=CONSTS)
    fns = fns[:125]
    corpus = [(t, s) for t in fns for s in args]
    assert len(corpus) >= 500
    levels = list(range(0, 6))

    outs = [[approx_apply(t, s, n) for n in levels + [6]] for t, s in corpus]
    fulls = [normalize(App(t.term, s.term)) for t, s in corpus]

    # (1) monotone gap to the true application; (2) gap zero once n
    # reaches the operand depths, where projection is the identity
    mono_bad = conv_bad = 0
    for (t, s), row, full in zip(corpus, outs, fulls):
        stable = max(nf_depth(t.term), nf_depth(s.term), 6)
        settled = approx_apply(t, s, stable)
        gaps = [e_distance(o, full).value for o in row + [settled]]
        mono_bad += any(b > a for a, b in zip(gaps, gaps[1:]))
        conv_bad += gaps[-1] != 0

    # (3) non-expansiveness at eps = 2^-(n+1): inputs within eps iff
    # both coordinates agree through projection level n+1
    fn_max = max(nf_depth(t.term) for t in fns) + 1
    fn_ids = _level_ids(fns, fn_max)
    fn_lvl = [
        [_agreement_level(fn_ids, fn_max, i, j) for j in range(len(fns))]
        for i in range(len(fns))
    ]
    for _ in range(100):
        i, j = rng.randrange(len(fns)), rng.randrange(len(fns))
        if i == j:
            continue
        m = fn_lvl[i][j]
        want = F(1) if m < 0 else F(1, 2**m)
        assert e_distance(fns[i], fns[j]).value == want
    arg_dist = {
        (i, j): e_distance(args[i], args[j]).value
        for i in range(len(args))
        for j in range(len(args))
    }
    discovered = []
    nonexp_bad = 0
    na = len(args)
    for n in levels:
        eps = F(1, 2 ** (n + 1))
        worst = F(0)
        close = 0
        for fi in range(len(fns)):
            for fj in range(fi, len(fns)):
                if fi != fj and (fn_lvl[fi][fj] < 0 or F(1, 2 ** fn_lvl[fi][fj]) > eps):
                    continue
                for ai in range(na):
                    for aj in range(na):
                        if arg_dist[(ai, aj)] > eps:
                            continue
                        i, j = fi * na + ai, fj * na + aj
                        if i >= j:
                            continue
                        close += 1
                        out_gap = e_distance(outs[i][n], outs[j][n]).value
                        worst = max(worst, out_gap)
                        nonexp_bad += out_gap > eps
        discovered.append((n, str(worst), close))
    ok = mono_bad == 0 and conv_bad == 0 and nonexp_bad == 0
    report(
        9,
        ok,
        f"{len(corpus)} pairs; monotonicity violations={mono_bad}, "
        f"non-convergent={conv_bad}, (n, worst gap, close pairs)={discovered}, "
        f"violations at 2^-(n+1)={nonexp_bad}",
    )


# ---------------------------------------------------------------------------
# 10: full-type-hierarchy distance


def test_criterion_10_full_type_hierarchy():
    v24, s24 = fth_distance(church(2), church(4), n_max=3)
    k1 = normalize(Lam("x", O, Lam("y", O, Bound(1, O))))
    k2 = normalize(Lam("x", O, Lam("y", O, Bound(0, O))))
    vk, _ = fth_distance(k1, k2, n_max=3)
    pool = []
    for sort, terms, _, _ in _corpora():
        pool.extend(terms)
    pool = pool[:100]
    self_ok = all(fth_distance(t, t, n_max=3)[0] == ExtReal(0) for t in pool)
    ok = v24 == ExtReal(F(1, 2)) and s24 == "exact" and vk == ExtReal(F(1)) and self_ok
    report(
        10,
        ok,
        f"d(c2,c4)={v24.render()}/{s24} (want 1/2); d(K,K*)={vk.render()} (want 1); "
        f"100 self-distances zero: {self_ok}",
    )


# ---------------------------------------------------------------------------
# 11: exponentiability by the midpoint condition.  No finite metric space
#     with two points at a finite positive distance passes full mode: split
#     a pair (x0, x2) at the least positive distance m as alpha = beta = m/2;
#     only x0 lies within m/2 of x0, and d(x0, x2) = m > m/2.  So {0,1} fails
#     at alpha = beta = 1/2 and the step-1/4 grid fails at the adjacent pair
#     (0, 1/4) with alpha = beta = 1/8, the same failure at a quarter of the
#     scale.  Both pass image_restricted mode, where alpha and beta are
#     distances the space realises.


def test_criterion_11_exponentiability():
    two = FiniteMetricSpace.line_grid(F(0), F(1), F(1))
    full2 = check_exponentiable(two, "full")
    two_ok = (
        not full2.ok
        and full2.witness[2] == ExtReal(F(1, 2))
        and full2.witness[3] == ExtReal(F(1, 2))
        and check_exponentiable(two, "image_restricted").ok
    )
    grid = FiniteMetricSpace.line_grid(F(0), F(1), F(1, 4))
    grid_full = check_exponentiable(grid, "full")
    grid_image_ok = check_exponentiable(grid, "image_restricted").ok
    want = ("0", "1/4", ExtReal(F(1, 8)), ExtReal(F(1, 8)))
    grid_full_ok = not grid_full.ok and grid_full.witness == want
    w = ", ".join(v if isinstance(v, str) else v.render() for v in grid_full.witness or ())
    report(
        11,
        two_ok and grid_image_ok and grid_full_ok,
        f"{{0,1}} fails full at alpha=beta=1/2 and passes image_restricted: {two_ok}; "
        f"step-1/4 grid passes image_restricted: {grid_image_ok}; "
        f"fails full at ({w}) (want (0, 1/4, 1/8, 1/8)): {grid_full_ok}",
    )


# ---------------------------------------------------------------------------
# 12: soundness harness over the shipped corpus


def test_criterion_12_soundness_harness():
    records = []
    n_derivs = 0
    rules = set()

    def walk(d):
        rules.add(d.rule)
        for p in d.premises:
            walk(p)

    for th, derivs, algs in harness_corpus():
        for name, d in derivs:
            assert check_derivation(d, th).ok, name
            walk(d)
        n_derivs += len(derivs)
        records.extend(soundness_harness(th, derivs, algs))
    violated = [r for r in records if r["status"] == "violated"]
    algebras = {r["algebra"] for r in records}
    ok = (
        n_derivs >= 30
        and len(algebras) >= 5
        and not violated
        and "Arch" not in rules
        and len(rules) >= 16
    )
    report(
        12,
        ok,
        f"{n_derivs} derivations, {len(algebras)} algebras, "
        f"{len(violated)} violations, {len(rules)} rules spanned",
    )


# ---------------------------------------------------------------------------
# 13: checker rejects every single-node mutant


def test_criterion_13_mutant_rejection():
    import test_mutants

    accepted = sum(
        1
        for theory_name, lst in test_mutants.DERIVS.items()
        for name, d in lst
        if check_derivation(d, test_mutants.THEORIES[theory_name]).ok
    )
    total_valid = sum(len(v) for v in test_mutants.DERIVS.values())
    rejected = 0
    mutants = 0
    for th, dname, opname, mutant in test_mutants.all_mutants():
        mutants += 1
        result = check_derivation(mutant, th)
        rejected += (not result.ok) and bool(result.reason)
    ok = accepted == total_valid and mutants >= 100 and rejected == mutants
    report(
        13,
        ok,
        f"{accepted}/{total_valid} valid accepted; {rejected}/{mutants} mutants "
        f"rejected with named reasons",
    )
