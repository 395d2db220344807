import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qlam.corpus import (
    FF,
    FG,
    I01,
    O,
    OO,
    corpus_algebras,
    harness_corpus,
    remark25_space,
)
from qlam.errors import BudgetError, InterpretationError, PreconditionError, StructuralError
from qlam.finite_models import (
    FiniteQuantAlgebra,
    _envs,
    _inference_vars,
    build_full_type_structure,
    build_grid_algebra,
    interpret,
    satisfies_inference,
    soundness_harness,
)
from qlam.metric_core import INF, ExtReal, FiniteMetricSpace, PointMap, ZERO
from qlam.quant_deduction import Inference, QuantEquation
from qlam.rewrite_engine import beta_normalize
from qlam.term_syntax import (
    App,
    ArrowSort,
    Bottom,
    Bound,
    Const,
    IntervalSort,
    Lam,
    STAR,
    Signature,
    Var,
    arrow,
    render_sort,
    subterms,
)

ALGS = corpus_algebras()


# ---------------------------------------------------------------------------
# Carriers and application tables


def test_arrow_carrier_holds_only_nonexpansive_tables():
    alg = ALGS["fts3"]
    base = alg.carrier(O)
    for table in alg.carrier(OO):
        for a in base:
            for b in base:
                ia, ib = alg.index(O, a), alg.index(O, b)
                fa = alg.apply(OO, table, a)
                fb = alg.apply(OO, table, b)
                assert alg.dist(O, fa, fb) <= alg.dist(O, a, b)


def space_at(alg, sort):
    """The carrier at sort as a metric space, each point named by its
    position in the carrier."""
    elems = alg.carrier(sort)
    return FiniteMetricSpace(
        tuple(str(i) for i in range(len(elems))),
        tuple(tuple(alg.dist(sort, x, y) for y in elems) for x in elems),
    )


@pytest.mark.parametrize(
    "base, sizes",
    [
        # d(b, b) = 1: a may not go to b, which is farther from itself
        (FiniteMetricSpace(["a", "b"], [[0, 1], [1, 1]]), [2, 1, 4]),
        (FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]]), [3, 4, 6]),  # asymmetric
        (remark25_space(), [12, 16, 1728]),
    ],
    ids=["self-far", "asymmetric", "remark25"],
)
def test_arrow_carriers_are_the_maps_is_nonexpansive_accepts(base, sizes):
    sorts = [OO, arrow(OO, O), arrow(O, OO)]
    alg = build_full_type_structure(base, sorts)
    for sort in sorts:
        dom, cod = space_at(alg, sort.dom), space_at(alg, sort.cod)
        maps = (PointMap(dom, cod, idx) for idx in itertools.product(range(cod.size), repeat=dom.size))
        want = [h.table for h in maps if h.is_nonexpansive()]
        got = [tuple(str(alg.index(sort.cod, c)) for c in f) for f in alg.carrier(sort)]
        assert got == want, render_sort(sort)
    assert [len(alg.carrier(sort)) for sort in sorts] == sizes


def test_symbols_at_arrow_sorts_are_checked_on_every_ordered_pair():
    # b is 1 from itself: a |-> b stretches d(a, a) = 0, though no pair of
    # distinct points is stretched
    base = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 1]])
    alg = FiniteQuantAlgebra("self-far", Signature(combinators=False), {O: base})
    alg.set_symbol("f", OO, (0, 1))
    with pytest.raises(PreconditionError, match="expansive"):
        alg.set_symbol("g", OO, (1, 1))


@pytest.mark.parametrize("table", [(0,), (0, 1, 0)], ids=["short", "long"])
def test_set_symbol_rejects_a_table_of_the_wrong_length(table):
    alg = build_full_type_structure(TWO, [OO])
    with pytest.raises(StructuralError, match="table of f has the wrong length at o->o"):
        alg.set_symbol("f", OO, table)


def test_grid_carrier_size():
    alg = ALGS["grid8"]
    assert len(alg.carrier(I01)) == 9
    k0 = alg.symbol("k0", I01)
    k1_2 = alg.symbol("k1_2", I01)
    assert alg.dist(I01, k0, k1_2) == ExtReal(F(1, 2))


def test_arrow_distance_is_xi_closed_form():
    alg = ALGS["fts3"]
    base = alg.carrier(O)
    tables = alg.carrier(OO)
    for f in tables[:6]:
        for g in tables[:6]:
            got = alg.dist(OO, f, g)
            violations = [
                alg.dist(O, alg.apply(OO, f, a), alg.apply(OO, g, b))
                for a in base
                for b in base
                if alg.dist(O, alg.apply(OO, f, a), alg.apply(OO, g, b))
                > alg.dist(O, a, b)
            ]
            expected = max(violations, default=ZERO)
            assert got == expected


def test_combinators_are_available_lazily():
    alg = ALGS["fts2"]
    i = alg.symbol("I", OO)
    for a in alg.carrier(O):
        assert alg.apply(OO, i, a) == a


def test_missing_carrier_raises():
    alg = ALGS["partial3"]
    with pytest.raises(StructuralError):
        alg.carrier(arrow(OO, OO) if False else OO)


# ---------------------------------------------------------------------------
# Interpretation


def test_interpret_constant_and_application():
    alg = ALGS["grid8"]
    m = Const("m", arrow(I01, I01))
    k1 = Const("k1", I01)
    val = interpret(App(m, k1), alg, {})
    assert val == alg.symbol("k1_2", I01)


def test_interpret_lambda_forms_tables():
    alg = ALGS["grid8"]
    lam = Lam("x", I01, Bound(0, I01))
    table = interpret(lam, alg, {})
    for a in alg.carrier(I01):
        assert alg.apply(arrow(I01, I01), table, a) == a


def test_interpret_respects_beta():
    alg = ALGS["grid8"]
    m = Const("m", arrow(I01, I01))
    x = Var("x", I01)
    t = App(Lam("y", I01, App(m, Bound(0, I01))), x)
    env = {"x": alg.symbol("k3_4", I01)}
    assert interpret(t, alg, env) == interpret(beta_normalize(t), alg, env)


def oracle_interpret(t, alg, env=None):
    """The by-node recursive evaluator the compiled one replaced."""
    env = env or {}

    def go(t, stack):
        if isinstance(t, Var):
            if t.name not in env:
                raise InterpretationError(f"no value for variable {t.name}")
            return env[t.name]
        if isinstance(t, Bound):
            return stack[t.index]
        if isinstance(t, Const):
            return alg.symbol(t.name, t.sort)
        if isinstance(t, Bottom):
            if alg.bottom is None:
                raise InterpretationError("bottom has no interpretation in finite algebras")
            space = alg.base_spaces.get(t.sort)
            if space is None or not 0 <= alg.bottom < space.size:
                raise InterpretationError("bottom element outside the base carrier")
            return alg.bottom
        if isinstance(t, App):
            return alg.apply(t.fn.sort, go(t.fn, stack), go(t.arg, stack))
        if isinstance(t, Lam):
            return tuple(go(t.body, (v,) + stack) for v in alg.carrier(t.var_sort))
        raise StructuralError(f"unknown term node {t!r}")

    return go(t, ())


def _outcome(evaluate):
    try:
        return "value", evaluate()
    except (StructuralError, BudgetError, InterpretationError) as exc:
        return type(exc), str(exc)


def test_compiled_evaluator_agrees_with_oracle_on_the_harness_corpus():
    # two fresh copies of the corpus, so that each evaluator sees its
    # algebras in the same state (symbols and carriers fill in lazily)
    outcomes = []
    for (_, derivs, algs), (_, _, oracle_algs) in zip(harness_corpus(), harness_corpus()):
        for _, deriv in derivs:
            inf = deriv.conclusion
            var_sorts = _inference_vars(inf)
            sides = [t for eq in [*inf.hypotheses, inf.conclusion] for t in (eq.left, eq.right)]
            for (aname, alg), (_, oracle_alg) in zip(algs, oracle_algs):
                envs = _outcome(lambda: list(_envs(alg, var_sorts)))
                assert envs == _outcome(lambda: list(_envs(oracle_alg, var_sorts)))
                if envs[0] != "value":
                    continue
                for env in envs[1]:
                    for t in sides:
                        got = _outcome(lambda: interpret(t, alg, env))
                        assert got == _outcome(lambda: oracle_interpret(t, oracle_alg, env)), (
                            aname,
                            t,
                            env,
                        )
                        outcomes.append(got[0])
    # the corpus reaches values and the fts3 budget error through S
    assert outcomes.count(BudgetError) == 3
    assert len(outcomes) == 17442


def test_interpret_errors_match_oracle():
    alg, oracle_alg = ALGS["grid8"], corpus_algebras()["grid8"]
    m = Const("m", FF)
    env = {"f": (), "x": 99, "u": 0, "v": 0}
    cases = [
        Var("y", I01),  # no value
        Const("nope", I01),  # no interpretation
        App(m, Var("x", I01)),  # not in the carrier
        App(Var("f", arrow(FF, I01)), m),  # domain without a carrier
        Lam("g", FF, Bound(0, FF)),  # binder without a carrier
        Bottom(I01),
        App(Var("u", STAR), Var("v", STAR)),  # application at a base sort
        App(Var("g", FF), Var("y", I01)),  # function before argument
    ]
    for t in cases:
        got = _outcome(lambda: interpret(t, alg, env))
        assert got[0] != "value", t
        assert got == _outcome(lambda: oracle_interpret(t, oracle_alg, env)), t


def test_interpret_rejects_bottom():
    alg = ALGS["grid8"]
    from qlam.term_syntax import Bottom

    with pytest.raises(InterpretationError):
        interpret(Bottom(I01), alg, {})


TWO = FiniteMetricSpace(["p", "q"], [[0, 1], [1, 0]])


def test_full_type_structure_interprets_bottom_as_given_element():
    for bottom in (0, 1):
        alg = build_full_type_structure(TWO, [OO], bottom=bottom)
        assert interpret(Bottom(O), alg) == bottom
        assert interpret(Lam("x", O, Bottom(O)), alg) == (bottom, bottom)
    with pytest.raises(InterpretationError, match="outside the base carrier"):
        interpret(Bottom(O), build_full_type_structure(TWO, [OO], bottom=2))
    with pytest.raises(InterpretationError, match="no interpretation"):
        interpret(Bottom(O), build_full_type_structure(TWO, [OO]))


def test_arrow_carriers_match_filtered_enumeration():
    # populate_arrow skips the per-table check when every table passes it;
    # the carriers must equal the filtered product either way
    bases = [
        (TWO, [OO, arrow(O, OO), arrow(OO, O), arrow(OO, OO)]),
        (FiniteMetricSpace.line_grid(F(0), F(1), F(1, 2)), [OO, arrow(O, OO)]),
        (
            FiniteMetricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]]),
            [OO, arrow(O, OO)],
        ),
    ]
    for base, sorts in bases:
        alg = build_full_type_structure(base, sorts)
        for sort in sorts:
            dom, cod = alg.carrier(sort.dom), alg.carrier(sort.cod)
            want = [
                f
                for f in itertools.product(cod, repeat=len(dom))
                if all(
                    alg.dist(sort.cod, f[i], f[j]) <= alg.dist(sort.dom, dom[i], dom[j])
                    for i, j in itertools.combinations(range(len(dom)), 2)
                )
            ]
            assert alg.carrier(sort) == want, render_sort(sort)


UNITS = (F(1, 3), F(1, 4), F(2, 5), F(1, 7))


def dist_oracle(alg, base, sort, x, y, memo):
    """The closed-form arrow distance by definition, on base.d ExtReals:
    the largest b(f(u), g(v)) above a(u, v) over the domain carrier."""
    key = (sort, x, y)
    if key not in memo:
        if not isinstance(sort, ArrowSort):
            memo[key] = base.d(x, y)
        else:
            dom = alg.carrier(sort.dom)
            best = ZERO
            for i, u in enumerate(dom):
                for j, v in enumerate(dom):
                    b = dist_oracle(alg, base, sort.cod, x[i], y[j], memo)
                    if b > dist_oracle(alg, base, sort.dom, u, v, memo) and b > best:
                        best = b
            memo[key] = best
    return memo[key]


@st.composite
def random_base(draw):
    """1-3 points, mixed denominators, inf entries; asymmetric at times."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(
        st.just(INF),
        st.builds(lambda k, unit: ExtReal(k * unit), st.integers(0, 6), st.sampled_from(UNITS)),
    )
    rows = [[ZERO if i == j else draw(entry) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(tuple(f"b{i}" for i in range(n)), tuple(map(tuple, rows)))


@seed(20241)
@settings(max_examples=30, deadline=None)
@given(random_base(), st.data())
def test_algebra_carriers_and_arrow_distances_match_extreal_oracle(base, data):
    o_oo = arrow(O, OO)
    alg = build_full_type_structure(base, [OO, o_oo])
    memo: dict = {}
    for sort in (OO, o_oo):
        dom, cod = alg.carrier(sort.dom), alg.carrier(sort.cod)
        want = [
            f
            for f in itertools.product(cod, repeat=len(dom))
            if all(
                dist_oracle(alg, base, sort.cod, f[i], f[j], memo)
                <= dist_oracle(alg, base, sort.dom, dom[i], dom[j], memo)
                for i, j in itertools.product(range(len(dom)), repeat=2)
            )
        ]
        assert alg.carrier(sort) == want, render_sort(sort)
    for f in alg.carrier(OO):
        for g in alg.carrier(OO):
            assert alg.dist(OO, f, g) == dist_oracle(alg, base, OO, f, g, memo)
    tables = alg.carrier(o_oo)
    for _ in range(10):
        f, g = data.draw(st.sampled_from(tables)), data.draw(st.sampled_from(tables))
        assert alg.dist(o_oo, f, g) == dist_oracle(alg, base, o_oo, f, g, memo)
    # the integer matrices entry by entry, where the carrier is small
    # enough to tabulate (16 of the 30 bases at o->o->o, 15 at (o->o)->o,
    # which has |o|^|o->o| candidate tables)
    oo_o, sorts = arrow(OO, O), [OO, o_oo]
    if base.size ** len(alg.carrier(OO)) <= alg.size_budget:
        alg.populate_arrow(oo_o)
        sorts.append(oo_o)
    for sort in sorts:
        elems = alg.carrier(sort)
        if len(elems) <= 64:
            want = [[dist_oracle(alg, base, sort, f, g, memo) for g in elems] for f in elems]
            got = [[ExtReal.scaled(d, alg.scale) for d in row] for row in alg._matrix(sort)]
            assert got == want, render_sort(sort)


# ---------------------------------------------------------------------------
# S against the eager table


def oracle_s_table(alg, sort):
    """S at (i->j->k)->(i->j)->i->k by definition, every row at once: the
    table of f |-> (g |-> (x |-> f x (g x)))."""
    fs = alg.populate_arrow(sort.dom)
    gs = alg.populate_arrow(sort.cod.dom)
    jdx = alg._index[sort.cod.dom.cod]
    g_indices = [[jdx[b] for b in g] for g in gs]
    return tuple(
        tuple([tuple([fx[j] for fx, j in zip(f, gi)]) for gi in g_indices]) for f in fs
    )


def assert_s_acts_as_its_table(alg, sort):
    """S from the algebra (a fresh copy for each check, so that each one
    starts with no row built) against the eager table: each row, len,
    iteration, == both ways, hash and the rendered text.  Where the
    carrier at S's sort fits the budget, I S looks S up in its index, by
    hash and ==; returns whether it did."""
    want = oracle_s_table(alg, sort)
    fresh = lambda: alg._combinator("S", sort)
    assert hash(fresh()) == hash(want)
    assert fresh() == want and want == fresh() and not fresh() != want
    assert fresh() == fresh() and {want: 0}[fresh()] == 0
    assert len(fresh()) == len(want)
    assert list(fresh()) == list(want)
    table = fresh()
    for i in reversed(range(len(want))):
        assert type(table[i]) is tuple and table[i] == want[i]
    assert table[-1] == want[-1]
    assert table == want
    assert fresh() != want[:-1] and fresh() != want + ((),) and fresh() != list(want)
    assert alg.render_element(sort, fresh()) == alg.render_element(sort, want)
    try:
        alg.populate_arrow(sort)
    except BudgetError:
        return False
    i_sort = arrow(sort, sort)
    assert interpret(App(Const("I", i_sort), Const("S", sort)), alg) == want
    assert alg.apply(i_sort, alg.symbol("I", i_sort), fresh()) == want
    return True


def harness_s_sorts():
    """(algebra name, algebra, sort) for every sort at which a derivation
    of the harness corpus names S in an algebra with combinators."""
    out = {}
    for _, derivs, algs in harness_corpus():
        for _, deriv in derivs:
            inf = deriv.conclusion
            for eq in [*inf.hypotheses, inf.conclusion]:
                for side in (eq.left, eq.right):
                    for t in subterms(side):
                        if isinstance(t, Const) and t.name == "S":
                            for aname, alg in algs:
                                if alg.signature.combinators:
                                    out.setdefault((aname, t.sort), alg)
    return [(aname, alg, sort) for (aname, sort), alg in out.items()]


def test_s_acts_as_its_table_at_every_harness_sort():
    checked = []
    for aname, alg, sort in harness_s_sorts():
        try:
            alg.populate_arrow(sort.dom)
            alg.populate_arrow(sort.cod.dom)
        except BudgetError:
            checked.append((aname, "budget"))
            continue
        rows = len(alg.carrier(sort.dom)) * len(alg.carrier(sort.cod.dom))
        checked.append((aname, rows, assert_s_acts_as_its_table(alg, sort)))
    # fts3 has no carrier at (o->o)->o, where its second S sort needs one;
    # I S fits on the one-point base alone
    assert sorted(checked, key=str) == sorted(
        [
            ("fts1", 1, True),
            ("fts1", 1, True),
            ("fts2", 64, False),
            ("fts2", 4096, False),
            ("fts3", 23_137, False),
            ("fts3", "budget"),
        ],
        key=str,
    )


def test_s_builds_only_the_rows_it_reads():
    alg = corpus_algebras()["fts3"]
    sort = arrow(arrow(O, OO), arrow(OO, OO))
    table = alg.symbol("S", sort)
    fs = alg.carrier(sort.dom)
    row = alg.apply(sort, table, fs[700])
    assert row == oracle_s_table(alg, sort)[700]
    assert sum(r is not None for r in table._rows) == 1 and len(table) == len(fs) == 1361


S_OOO = arrow(arrow(O, OO), arrow(OO, OO))


@seed(20261)
@settings(max_examples=12, deadline=None)
@given(random_base())
def test_s_acts_as_its_table_on_random_bases(base):
    alg = build_full_type_structure(base, [S_OOO.dom, S_OOO.cod.dom])
    # the draw has bases with 19,683 maps at o->o->o (531,441 rows); the
    # harness test above covers tables up to 23,137 rows
    assume(len(alg.carrier(S_OOO.dom)) * len(alg.carrier(S_OOO.cod.dom)) <= 8_000)
    assert assert_s_acts_as_its_table(alg, S_OOO) or base.size > 1


def test_grid_arrow_distance_without_a_full_carrier_matches_oracle():
    alg = corpus_algebras()["grid8"]
    assert FF not in alg._carriers
    base, memo = alg.base_spaces[I01], {}
    tables = [alg.symbol("idf", FF), alg.symbol("m", FF), interpret(Lam("x", I01, Const("k1_4", I01)), alg)]
    for f in tables:
        for g in tables:
            assert alg.dist(FF, f, g) == dist_oracle(alg, base, FF, f, g, memo)
    # |1 - m(1)| = 1/2 above |1 - 1| = 0, and no pair does better
    assert alg.dist(FF, tables[0], tables[1]) == ExtReal(F(1, 2))


def test_algebra_scale_is_the_lcm_of_the_base_scales():
    thirds, quarters = IntervalSort(F(0), F(1)), IntervalSort(F(0), F(2))
    alg = build_grid_algebra([(F(0), F(1), F(1, 3)), (F(0), F(2), F(1, 4))])
    assert alg.scale == 12
    for sort in (thirds, quarters):
        pts = [F(p) for p in alg.base_spaces[sort].points]
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                assert alg.dist(sort, i, j) == ExtReal(abs(p - q))


def test_epsilon_bounds_compare_exactly_at_the_algebra_scale():
    # d = 1/3 at scale 3 against bounds with other denominators
    thirds = FiniteMetricSpace(["p", "q"], [[0, F(1, 3)], [F(1, 3), 0]])
    alg = build_full_type_structure(thirds, [OO])
    assert alg.scale == 3
    x, y = Var("x", O), Var("y", O)
    for eps, ok in ((F(1, 3), True), (F(33333, 100000), False), (F(1, 2), True), (0, False)):
        assert satisfies_inference(alg, Inference(frozenset(), eq(x, y, eps))).satisfied == ok
    f, g = Var("f", OO), Var("g", OO)
    for eps, ok in ((F(1, 3), True), (F(1, 4), False)):
        app = QuantEquation(App(f, x), App(g, x), eps, O, frozenset({x}))
        report = satisfies_inference(alg, Inference(frozenset(), app))
        assert report.satisfied == ok
    assert report.counter_tuples["delta"] == "0"


# ---------------------------------------------------------------------------
# Satisfaction


def test_sat_reads_asymmetric_distances_left_to_right():
    # d(p, q) = 1 and d(q, p) = 2: the first violating environment of
    # x =_1 y is x = q, y = p; and x =_0 x over X = {x} holds because
    # delta is d(a, b), the distance of the sides, in the same direction
    alg = build_full_type_structure(FiniteMetricSpace(["p", "q"], [[0, 1], [2, 0]]), [])
    x, y = Var("x", O), Var("y", O)
    report = satisfies_inference(alg, Inference(frozenset(), eq(x, y, 1)))
    assert report.counter_assignment == {"x": "q", "y": "p"}
    quantified = QuantEquation(x, x, F(0), O, frozenset({x}))
    assert satisfies_inference(alg, Inference(frozenset(), quantified)).satisfied


def eq(l, r, eps, X=frozenset()):
    return QuantEquation(l, r, F(eps), l.sort, X)


def test_sat_monotone_in_epsilon():
    alg = ALGS["grid8"]
    k0, k1 = Const("k0", I01), Const("k1", I01)
    for num in range(0, 9):
        e = F(num, 8)
        report = satisfies_inference(alg, Inference(frozenset(), eq(k0, k1, e)))
        assert report.satisfied == (e >= 1)


def test_sat_counterexample_is_reported():
    alg = ALGS["grid8"]
    x, y = Var("x", I01), Var("y", I01)
    report = satisfies_inference(alg, Inference(frozenset(), eq(x, y, F(1, 2))))
    assert not report.satisfied
    assert report.counter_assignment is not None


def oracle_sat(alg, inf):
    """Plain satisfaction of an inference whose quantified sets are all
    empty, by definition: the first environment of its variables that
    keeps every hypothesis within its epsilon and not the conclusion,
    evaluated node by node.  This is the pointwise loop that satisfaction
    over tuple pairs replaced; it gives (satisfied, counter_assignment)."""
    assert not any(e.quantified for e in [*inf.hypotheses, inf.conclusion])
    var_sorts = _inference_vars(inf)

    def within(e, env):
        left = oracle_interpret(e.left, alg, env)
        right = oracle_interpret(e.right, alg, env)
        return alg.dist(e.sort, left, right) <= ExtReal(e.eps)

    for env in _envs(alg, var_sorts):
        if all(within(h, env) for h in inf.hypotheses) and not within(inf.conclusion, env):
            return False, {n: alg.render_element(var_sorts[n], v) for n, v in env.items()}
    return True, None


def test_sat_star_agrees_with_sat_on_empty_x():
    """With X empty, satisfaction over tuple pairs is plain satisfaction:
    on every empty-X inference of the harness corpus, with and without
    its hypotheses and with the conclusion's epsilon set to 0, in each of
    its algebras, the report agrees with the pointwise oracle."""
    outcomes = []
    for (_, derivs, algs), (_, _, oracle_algs) in zip(harness_corpus(), harness_corpus()):
        for _, deriv in derivs:
            inf = deriv.conclusion
            if any(e.quantified for e in [*inf.hypotheses, inf.conclusion]):
                continue
            c = inf.conclusion
            variants = [
                inf,
                Inference(frozenset(), c),
                Inference(frozenset(), QuantEquation(c.left, c.right, 0, c.sort)),
            ]
            for variant in variants:
                for (aname, alg), (_, oracle_alg) in zip(algs, oracle_algs):

                    def fast():
                        report = satisfies_inference(alg, variant)
                        assert report.counter_tuples is None
                        return report.satisfied, report.counter_assignment

                    got = _outcome(fast)
                    assert got == _outcome(lambda: oracle_sat(oracle_alg, variant)), (aname, variant)
                    outcomes.append(got[1][0] if got[0] == "value" else got[0])
    # the variants reach satisfied and violated inferences and the fts3
    # budget error
    assert (outcomes.count(True), outcomes.count(False), outcomes.count(BudgetError)) == (140, 34, 3)


def test_sat_star_refutes_pointwise_hypothesis():
    alg = ALGS["ex15"]
    f, g = Const("f", FG), Const("g", FG)
    x = Var("x", I01)
    X = frozenset({x})
    hyp = QuantEquation(App(f, x), App(g, x), F(1, 4), App(f, x).sort, X)
    report = satisfies_inference(alg, Inference(frozenset(), hyp))
    assert not report.satisfied
    assert report.counter_tuples is not None


def test_sat_star_hypotheses_must_share_quantified_set():
    alg = ALGS["grid8"]
    x = Var("x", I01)
    X = frozenset({x})
    hyp = eq(x, x, F(0))  # empty X
    concl = QuantEquation(x, x, F(0), I01, X)
    with pytest.raises(StructuralError):
        satisfies_inference(alg, Inference(frozenset({hyp}), concl))


def test_variable_at_two_sorts_rejected():
    alg = ALGS["grid8"]
    x_base = Var("x", I01)
    x_fn = Var("x", arrow(I01, I01))
    y = Var("y", I01)
    hyp = eq(x_base, x_base, F(0))
    concl = eq(App(x_fn, y), App(x_fn, y), F(0))
    with pytest.raises(StructuralError):
        satisfies_inference(alg, Inference(frozenset({hyp}), concl))


# ---------------------------------------------------------------------------
# Harness


def test_harness_has_no_violations_and_enough_coverage():
    records = []
    for th, derivs, algs in harness_corpus():
        records.extend(soundness_harness(th, derivs, algs))
    statuses = [r["status"] for r in records]
    assert all(not s == "violated" for s in statuses)
    assert sum(s == "satisfied" for s in statuses) >= 30
    theories = {r["theory"] for r in records}
    algebras = {r["algebra"] for r in records}
    assert len(algebras) >= 5
    assert len(theories) >= 4


def test_harness_modes_follow_theory_kind():
    for th, derivs, algs in harness_corpus():
        records = soundness_harness(th, derivs[:1], algs[:1])
        for r in records:
            assert r["mode"] == ("sat_star" if th.is_lambda else "sat")
