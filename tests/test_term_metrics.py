import itertools
from fractions import Fraction as F

import pytest

from qlam.corpus import REMARK25_CONSTANTS, church, remark25_terms, remark27_terms
from qlam.errors import BudgetError, InterpretationError, SortError, StructuralError
from qlam.metric_core import ExtReal
from qlam.rewrite_engine import normalize
from qlam.term_metrics import (
    Dyadic,
    DYADIC_ONE,
    DYADIC_ZERO,
    approx_apply,
    check_approx_conditions,
    dnf_distance,
    e_distance,
    enumerate_closed_nfs,
    fth_distance,
    nf_depth,
    order_distance,
    order_leq,
    project,
)
from qlam.term_syntax import (
    App,
    ArrowSort,
    BaseSort,
    Bottom,
    Bound,
    Const,
    Lam,
    Var,
    arrow,
    bind,
    parse_sort,
    parse_term,
    print_term,
    Signature,
)

O = BaseSort("o")
OO = arrow(O, O)
S1 = arrow(OO, O)
SIG = Signature(constants=dict(REMARK25_CONSTANTS))


def nf(text):
    return normalize(parse_term(text, SIG))


# ---------------------------------------------------------------------------
# Dyadic


def test_dyadic_validation_and_render():
    assert Dyadic(F(1, 8)).render() == "1/8"
    assert DYADIC_ONE.render() == "1"
    assert DYADIC_ZERO.render() == "0"
    with pytest.raises(StructuralError):
        Dyadic(F(1, 3))
    assert Dyadic.from_level(2) == Dyadic(F(1, 4))


# ---------------------------------------------------------------------------
# Projections


def test_projection_cuts_at_depth():
    t = nf("\\x:o->o. x (x (x c1))")
    assert print_term(project(t, 0).term) == "\\x:o->o. bot:o"
    assert print_term(project(t, 2).term) == "\\x:o->o. x (x bot:o)"
    assert project(t, 5).term == t.term


def test_projection_fixed_points():
    bot = normalize(Bottom(O))
    assert project(bot, 0).term == bot.term
    c = nf("c1")
    assert project(c, 0).term == c.term


def test_nf_depth():
    assert nf_depth(nf("\\x:o->o. x (x c1)").term) == 2
    assert nf_depth(Bottom(O)) == 0
    assert nf_depth(nf("c1").term) == 0


def corpus_at(sort, budget=24):
    terms, _ = enumerate_closed_nfs(sort, budget, constants=REMARK25_CONSTANTS)
    return terms


def test_projection_coherence_on_corpus():
    # equality at depth n+1 implies equality at depth n
    for sort in (O, OO, S1):
        terms = corpus_at(sort)
        assert len(terms) >= 3
        for a in terms:
            for b in terms:
                for n in range(4):
                    if project(a, n + 1).term == project(b, n + 1).term:
                        assert project(a, n).term == project(b, n).term


# ---------------------------------------------------------------------------
# e-distance


def test_remark_pair_values():
    t = remark27_terms()
    assert e_distance(t["t"], t["s"]) == Dyadic(F(1, 4))
    ut = normalize(App(t["u"].term, t["t"].term))
    us = normalize(App(t["u"].term, t["s"].term))
    assert e_distance(ut, us) == DYADIC_ONE


def test_e_distance_ultrametric_laws():
    for sort in (O, OO):
        terms = corpus_at(sort)
        for a in terms:
            assert e_distance(a, a) == DYADIC_ZERO
            for b in terms:
                assert e_distance(a, b) == e_distance(b, a)
                for c in terms:
                    assert e_distance(a, c).value <= max(
                        e_distance(a, b).value, e_distance(b, c).value
                    )


def test_e_distance_detects_level():
    # projections agree up to level 1 (\x. x bot) and differ at level 2
    a = nf("\\x:o->o. x (x c1)")
    b = nf("\\x:o->o. x (x c2)")
    assert e_distance(a, b) == Dyadic(F(1, 2))
    assert e_distance(nf("c1"), nf("c2")) == DYADIC_ONE


# ---------------------------------------------------------------------------
# d^NF


def test_dnf_reproduces_normal_form_distances():
    terms = remark25_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    cert_ts = dnf_distance(t, s, constants=REMARK25_CONSTANTS)
    assert cert_ts.value == Dyadic(F(1, 2)) and cert_ts.status == "exact"
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    cert_app = dnf_distance(ut, us, constants=REMARK25_CONSTANTS)
    assert cert_app.value == DYADIC_ONE and cert_app.status == "exact"
    cert_uu = dnf_distance(u, u, constants=REMARK25_CONSTANTS)
    assert cert_uu.value == DYADIC_ONE and cert_uu.status == "exact"
    wa, wb = cert_uu.failing_witness
    assert {wa, wb} == {t.term, s.term}


def test_dnf_self_distance_zero_at_base():
    c = nf("c1")
    cert = dnf_distance(c, c, constants=REMARK25_CONSTANTS)
    assert cert.value == DYADIC_ZERO and cert.status == "exact"


def test_dnf_symmetry():
    terms = corpus_at(OO, budget=16)
    for a in terms:
        for b in terms:
            ca = dnf_distance(a, b, constants=REMARK25_CONSTANTS)
            cb = dnf_distance(b, a, constants=REMARK25_CONSTANTS)
            assert ca.value == cb.value


def test_dnf_dominates_e_distance():
    # the application condition can only lower the agreeing level
    terms = corpus_at(OO, budget=16)
    for a in terms:
        for b in terms:
            assert (
                dnf_distance(a, b, constants=REMARK25_CONSTANTS).value.value
                >= e_distance(a, b).value
            )


# ---------------------------------------------------------------------------
# Order distance


def test_order_distance_values():
    a = nf("\\x:o->o. x (x c1)")
    cut = project(a, 1)
    assert order_distance(a, a)[0] == DYADIC_ZERO
    d, res = order_distance(a, cut)
    assert d == Dyadic(F(1, 2)) and res.comparable
    assert res.join.term == a.term
    b = nf("\\x:o->o. x (x c2)")
    d2, res2 = order_distance(a, b)
    assert d2 == DYADIC_ONE and not res2.comparable


def test_order_leq_matches_projection():
    a = nf("\\x:o->o. x (x c1)")
    for n in range(4):
        assert order_leq(project(a, n), a)
    assert not order_leq(a, project(a, 1))


# ---------------------------------------------------------------------------
# Full type hierarchy


def test_fth_distinguishes_church_numerals():
    value, status = fth_distance(church(2), church(4), n_max=3)
    assert value == ExtReal(F(1, 2)) and status == "exact"


def test_fth_projections():
    k1 = nf("\\x:o. \\y:o. x")
    k2 = nf("\\x:o. \\y:o. y")
    value, status = fth_distance(k1, k2, n_max=3)
    assert value == ExtReal(F(1)) and status == "exact"


def test_fth_zero_on_equal_terms():
    for t in corpus_at(OO, budget=16)[:8]:
        value, status = fth_distance(t, t, n_max=3)
        assert value == ExtReal(0)


def test_fth_bound_exhausted():
    value, status = fth_distance(church(2), church(2), n_max=2)
    assert status in ("exact", "bound_exhausted")
    assert value == ExtReal(0) or status == "bound_exhausted"


def _fth_by_definition(t, s, n_max, bottom=0):
    """fth_distance from its definition: evaluate both terms in the full
    set-theoretic hierarchy over range(N), whose arrow carriers are plain
    itertools.product function spaces with no metric, for N = 1..n_max."""
    carriers = {}

    def carrier(sort, n):
        key = (sort, n)
        if key not in carriers:
            if isinstance(sort, ArrowSort):
                dom, cod = carrier(sort.dom, n), carrier(sort.cod, n)
                carriers[key] = list(itertools.product(cod, repeat=len(dom)))
            else:
                carriers[key] = list(range(n))
        return carriers[key]

    def ev(u, env, n):
        if isinstance(u, Bound):
            return env[u.index]
        if isinstance(u, Bottom):
            if bottom >= n:
                raise InterpretationError("bottom element outside the base carrier")
            return bottom
        if isinstance(u, App):
            return ev(u.fn, env, n)[carrier(u.arg.sort, n).index(ev(u.arg, env, n))]
        assert isinstance(u, Lam)
        return tuple(ev(u.body, (v,) + env, n) for v in carrier(u.var_sort, n))

    if t.term == s.term:
        return ExtReal(0), "exact"
    for n in range(1, n_max + 1):
        if ev(t.term, (), n) != ev(s.term, (), n):
            return ExtReal(F(1, max(n - 1, 1))), "exact"
    return ExtReal(F(1, n_max)), "bound_exhausted"


def _fth_pools():
    for text, budget in (("o->o->o", 12), ("(o->o)->o", 10)):
        yield enumerate_closed_nfs(parse_sort(text), budget)[0][:8]
    yield [church(k) for k in range(5)]


def test_fth_matches_definition_on_enumerated_pairs():
    statuses = set()
    for pool in _fth_pools():
        for t, s in itertools.combinations_with_replacement(pool, 2):
            for n_max in (2, 3):
                got = fth_distance(t, s, n_max=n_max)
                assert got == _fth_by_definition(t, s, n_max), (t, s, n_max)
                statuses.add(got[1])
    assert statuses == {"exact", "bound_exhausted"}


def test_fth_matches_definition_on_bottom_headed_pair():
    t = nf("\\f:o->o. \\x:o. bot:o")
    s = nf("\\f:o->o. \\x:o. f x")
    assert fth_distance(t, s, n_max=3) == _fth_by_definition(t, s, 3) == (ExtReal(1), "exact")
    # the base sizes start at 1, so any other bottom element is out of range
    for fth in (fth_distance, _fth_by_definition):
        with pytest.raises(InterpretationError, match="outside the base carrier"):
            fth(t, s, 3, 1)


def test_fth_budget_error_stays_a_budget_error():
    # church 2 and 4 first differ over 3 points, where o->o has 27 maps
    with pytest.raises(BudgetError):
        fth_distance(church(2), church(4), n_max=3, size_budget=20)
    assert fth_distance(church(2), church(4), n_max=3) == _fth_by_definition(
        church(2), church(4), 3
    )


def test_fth_rejects_free_variables_and_constants():
    k = Const("K", arrow(O, arrow(O, O)))
    for t, s in (
        (nf("\\f:o->o. f c1"), nf("\\f:o->o. f c2")),
        (normalize(k), nf("\\x:o. \\y:o. x")),
        (nf("\\x:o. y:o"), nf("\\x:o. x")),
    ):
        with pytest.raises(InterpretationError, match="closed pure terms"):
            fth_distance(t, s, n_max=3)


def test_fth_needs_a_single_base_sort():
    # the hierarchy is built over one base; a second base sort has no carrier
    t = nf("\\g:o->o. \\f:p->o. \\x:p. g (f x)")
    s = nf("\\g:o->o. \\f:p->o. \\x:p. f x")
    with pytest.raises(StructuralError):
        fth_distance(t, s, n_max=3)


# ---------------------------------------------------------------------------
# Approximate application


def approx_corpus():
    fns = corpus_at(OO, budget=16)[:6]
    args = corpus_at(O, budget=8)[:4]
    return [(f, a) for f in fns for a in args]


def test_approx_apply_matches_full_application_in_the_limit():
    t = nf("\\x:o->o. x (x c1)")
    s = nf("\\y:o. y")
    full = normalize(App(t.term, s.term))
    assert approx_apply(t, s, 6).term == project(full, 5).term or e_distance(
        approx_apply(t, s, 6), full
    ).value <= F(1, 2**5)


def test_approx_conditions_report():
    report = check_approx_conditions(approx_corpus(), (0, 4))
    assert report["monotonicity_violations"] == []
    for entry in report["convergence"]:
        assert entry["least_n_eps_0"] is not None
    for entry in report["nonexpansiveness"]:
        n = entry["n"]
        assert entry["first_violation"] is None
        assert F(entry["largest_eps"]) >= F(1, 2 ** (n + 1))
