import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qlam.corpus import REMARK25_CONSTANTS, church, remark25_terms, remark27_terms
from qlam.errors import BudgetError, InterpretationError, SortError, StructuralError
from qlam.metric_core import ExtReal
from qlam.rewrite_engine import normalize
from qlam.term_metrics import (
    DistCertificate,
    DnfContext,
    _dyadic,
    _Enumerator,
    _min_size,
    agreement_level,
    approx_apply,
    dnf_distance,
    e_distance,
    enumerate_closed_nfs,
    fth_distance,
    nf_depth,
    order_distance,
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
    app,
    arrow,
    free_vars,
    parse_sort,
    parse_term,
    print_term,
    Signature,
    sort_spine,
    subterms,
)

O = BaseSort("o")
OO = arrow(O, O)
S1 = arrow(OO, O)
SIG = Signature(constants=dict(REMARK25_CONSTANTS))


def nf(text):
    return normalize(parse_term(text, SIG))


# ---------------------------------------------------------------------------
# Dyadic values: the former value class of the tree distances, kept as the
# oracle of _dyadic and e_distance


@dataclass(frozen=True, order=True)
class Dyadic:
    """0 or 1/2^m; the value range of the tree distances."""

    value: F

    def __post_init__(self) -> None:
        v = self.value
        ok = v == 0 or (
            v.numerator == 1 and v.denominator & (v.denominator - 1) == 0 and v <= 1
        )
        if not ok:
            raise StructuralError(f"{v} is not 0 or a dyadic 1/2^m")

    @classmethod
    def from_level(cls, m: int) -> "Dyadic":
        return cls(F(1, 2**m))

    def render(self) -> str:
        return str(self.value)


ZERO, ONE, HALF, QUARTER = ExtReal(0), ExtReal(1), ExtReal(F(1, 2)), ExtReal(F(1, 4))


def _agrees_with_oracle(values, oracles):
    """ExtReal values against Dyadic oracles of the same distances: the
    same text, value and hash of the value, and the same == and < with
    every other value."""
    for x, d in zip(values, oracles):
        assert (x.render(), x.value, hash(x)) == (d.render(), d.value, hash(d.value))
    for (x, d), (y, c) in itertools.product(zip(values, oracles), repeat=2):
        assert (x == y, x < y) == (d == c, d < c)


def test_dyadic_matches_the_oracle_class():
    levels = list(range(201)) + [math.inf]
    values = [_dyadic(m) for m in levels]
    oracles = [Dyadic(F(0)) if m == math.inf else Dyadic.from_level(m) for m in levels]
    _agrees_with_oracle(values, oracles)
    assert [x.render() for x in values[:3] + values[-1:]] == ["1", "1/2", "1/4", "0"]


def test_e_distance_matches_the_oracle_class_on_the_criterion_07_corpus():
    rng = random.Random(2207)
    for sort, budget in ((arrow(OO, O), 140), (arrow(OO, OO), 120), (arrow(O, arrow(OO, O)), 140)):
        terms = enumerate_closed_nfs(sort, budget, {"c1": O, "c2": O})[0][:200]
        pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(150)]
        pairs += [(t, t) for t, _ in pairs[:5]]
        levels = [agreement_level(t, s) for t, s in pairs]
        _agrees_with_oracle(
            [e_distance(t, s) for t, s in pairs],
            [Dyadic(F(0)) if m is None else Dyadic.from_level(max(m, 0)) for m in levels],
        )
        # the sample reaches 0, 1 and levels in between
        assert {None, -1} <= set(levels) and max(m for m in levels if m is not None) > 0


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
    assert e_distance(t["t"], t["s"]) == QUARTER
    ut = normalize(App(t["u"].term, t["t"].term))
    us = normalize(App(t["u"].term, t["s"].term))
    assert e_distance(ut, us) == ONE


def test_e_distance_ultrametric_laws():
    for sort in (O, OO):
        terms = corpus_at(sort)
        for a in terms:
            assert e_distance(a, a) == ZERO
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
    assert e_distance(a, b) == HALF
    assert e_distance(nf("c1"), nf("c2")) == ONE


# ---------------------------------------------------------------------------
# d^NF


def test_dnf_reproduces_normal_form_distances():
    terms = remark25_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    cert_ts = dnf_distance(t, s, constants=REMARK25_CONSTANTS)
    assert cert_ts.value == HALF and cert_ts.status == "exact"
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    cert_app = dnf_distance(ut, us, constants=REMARK25_CONSTANTS)
    assert cert_app.value == ONE and cert_app.status == "exact"
    cert_uu = dnf_distance(u, u, constants=REMARK25_CONSTANTS)
    assert cert_uu.value == ONE and cert_uu.status == "exact"
    wa, wb = cert_uu.failing_witness
    assert {wa, wb} == {t.term, s.term}


def test_dnf_self_distance_zero_at_base():
    c = nf("c1")
    cert = dnf_distance(c, c, constants=REMARK25_CONSTANTS)
    assert cert.value == ZERO and cert.status == "exact"


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
    assert order_distance(a, a)[0] == ZERO
    d, res = order_distance(a, cut)
    assert d == HALF and res.comparable
    assert res.join.term == a.term
    b = nf("\\x:o->o. x (x c2)")
    d2, res2 = order_distance(a, b)
    assert d2 == ONE and not res2.comparable


def test_order_leq_matches_projection():
    """project(a, n) lies below a in the approximation order: they join to a."""
    a = nf("\\x:o->o. x (x c1)")
    for n in range(4):
        _, res = order_distance(project(a, n), a)
        assert res.comparable and res.join.term == a.term
    assert order_distance(a, project(a, 1))[1].join.term != project(a, 1).term


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


def _fth_by_definition(t, s, n_max):
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
            return 0
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
    # the base sizes start at 1, so element 0 is the only bottom there is;
    # a fourth positional argument is not taken as the size budget
    with pytest.raises(TypeError):
        fth_distance(t, s, 3, 1)


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


def test_approx_apply_matches_full_application_in_the_limit():
    t = nf("\\x:o->o. x (x c1)")
    s = nf("\\y:o. y")
    full = normalize(App(t.term, s.term))
    assert approx_apply(t, s, 6).term == project(full, 5).term or e_distance(
        approx_apply(t, s, 6), full
    ).value <= F(1, 2**5)


# ---------------------------------------------------------------------------
# Oracles for the fast paths: the agreement walk, the per-context
# application memo, the size-carrying enumerator and the explicit-stack
# subterms walk


# the sorts of acceptance criterion 07
C07_SORTS = (arrow(OO, O), arrow(OO, OO), arrow(O, arrow(OO, O)))


@functools.lru_cache(maxsize=None)
def oracle_corpus(sort, budget=40):
    return corpus_at(sort, budget)


def _agreement_by_projection(t, s):
    """The largest n with equal level-n projections, -1 if none, None if
    all agree; past both depths projection is the identity."""
    past = max(nf_depth(t.term), nf_depth(s.term)) + 1
    agree = [n for n in range(past + 1) if project(t, n) == project(s, n)]
    if past in agree:
        return None
    return max(agree, default=-1)


def test_oracle_corpora_hold_fixed_points():
    # bottom-bodied and constant-headed forms are projection fixed points;
    # the agreement walk treats them apart, so the corpora must hold both
    for sort in C07_SORTS:
        heads = set()
        for t in oracle_corpus(sort):
            core = t.term
            while isinstance(core, Lam):
                core = core.body
            while isinstance(core, App):
                core = core.fn
            heads.add(type(core))
        assert {Bottom, Const, Bound} <= heads, sort


@seed(20221)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(C07_SORTS), st.data())
def test_agreement_level_matches_projection(sort, data):
    terms = oracle_corpus(sort)
    t = terms[data.draw(st.integers(0, len(terms) - 1))]
    s = terms[data.draw(st.integers(0, len(terms) - 1))]
    level = agreement_level(t, s)
    assert level == _agreement_by_projection(t, s) == agreement_level(s, t)
    assert e_distance(t, s) == (ZERO if level is None else ExtReal(F(1, 2 ** max(level, 0))))


def test_agreement_level_on_fixed_points_and_binders():
    untyped = Signature(untyped=True)
    pairs = [
        # bottom body against a var-headed body: agree at level 0 only
        (nf("\\f:o->o. bot:o"), nf("\\f:o->o. f c1")),
        # constant body against a var-headed body: differ at level 0
        (nf("\\f:o->o. c1"), nf("\\f:o->o. f c1")),
        (nf("\\f:o->o. c1"), nf("\\f:o->o. bot:o")),
        (nf("\\f:o->o. f (f c1)"), nf("\\f:o->o. f (f bot:o)")),
        (nf("\\f:o->o. f (f c1)"), nf("\\f:o->o. f bot:o")),
        # equal, but built apart: no shared subterm
        (nf("\\f:o->o. f (f c1)"), nf("\\f:o->o. f (f c1)")),
        # the last argument agrees to level 0, an earlier one not even there
        (nf("\\f:o->o->o. f c1 bot:o"), nf("\\f:o->o->o. f c2 (f c1 c1)")),
        # untyped: a different number of binders differs at level 0
        (normalize(parse_term("\\x. x", untyped)), normalize(parse_term("\\x. \\y. x", untyped))),
        (normalize(parse_term("\\x. x x", untyped)), normalize(parse_term("\\x. x bot", untyped))),
    ]
    got = [agreement_level(t, s) for t, s in pairs]
    assert got == [_agreement_by_projection(t, s) for t, s in pairs]
    assert got == [0, -1, -1, 1, 1, None, 0, -1, 1]
    with pytest.raises(SortError):
        agreement_level(nf("c1"), nf("\\f:o->o. c1"))
    with pytest.raises(SortError):
        e_distance(nf("c1"), nf("\\f:o->o. c1"))


@functools.lru_cache(maxsize=None)
def _witnesses(sort, budget):
    return enumerate_closed_nfs(sort, budget, REMARK25_CONSTANTS)


def _dnf_by_definition(t, s, budget):
    """d^NF from its definition, with no memo of distances or
    applications: level n passes when the level-n projections agree and,
    for every witness pair within 1/2^n, both sides map it to outputs
    within 1/2^n.  Returns (value, status, failing witness)."""
    if not isinstance(t.sort, ArrowSort):
        return (ZERO if t == s else ONE), "exact", None
    witnesses, exhausted = _witnesses(t.sort.dom, budget)
    best, prior_certified = None, True

    def fail(failing, fail_certified):
        value = ONE if best is None else ExtReal(F(1, 2**best))
        exact = fail_certified and (best is None or prior_certified)
        return value, "exact" if exact else "lower_bound", failing

    for n in range(max(nf_depth(t.term), nf_depth(s.term)) + 1):
        if project(t, n) != project(s, n):
            return fail(None, True)
        certified = exhausted or n == 0
        # level 0 is vacuous: every distance is at most 1
        for v, w in itertools.combinations_with_replacement(witnesses if n else [], 2):
            pair_value, pair_status, _ = _dnf_by_definition(v, w, budget)
            if pair_value.value > F(1, 2**n):
                continue
            for side in (t, s):
                out_value, out_status, _ = _dnf_by_definition(
                    normalize(App(side.term, v.term)), normalize(App(side.term, w.term)), budget
                )
                if out_value.value > F(1, 2**n):
                    return fail((v.term, w.term), pair_status == "exact")
                certified = certified and out_status == "exact"
        best, prior_certified = n, prior_certified and certified
    return ZERO, "exact" if prior_certified else "lower_bound", None


DNF_SORTS = (arrow(OO, O), arrow(O, arrow(OO, O)), arrow(arrow(OO, O), O))
DNF_BUDGET = 6
DNF_CONTEXT = DnfContext(DNF_BUDGET, REMARK25_CONSTANTS)


@seed(20222)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DNF_SORTS), st.data())
def test_memoized_dnf_matches_definition(sort, data):
    terms = oracle_corpus(sort, 16)
    t = terms[data.draw(st.integers(0, len(terms) - 1))]
    s = terms[data.draw(st.integers(0, len(terms) - 1))]
    # one context for every example, so later draws hit earlier memo entries
    cert = DNF_CONTEXT.distance(t, s)
    expect = _dnf_by_definition(t, s, DNF_BUDGET)
    assert (cert.value, cert.status, cert.failing_witness) == expect


def test_memoized_dnf_matches_definition_on_uncertain_witness_pairs():
    # at this sort the witness pairs' own distances are lower bounds, so a
    # failure found through one of them is not certified
    s4 = arrow(arrow(arrow(arrow(OO, O), O), O), O)
    terms = oracle_corpus(s4, 14)
    ctx = DnfContext(7, REMARK25_CONSTANTS)
    for i, j in ((17, 72), (97, 8)):
        cert = ctx.distance(terms[i], terms[j])
        assert cert.failing_witness is not None
        v, w = (normalize(u) for u in cert.failing_witness)
        assert ctx.distance(v, w).status == "lower_bound"
        expect = _dnf_by_definition(terms[i], terms[j], 7)
        assert (cert.value, cert.status, cert.failing_witness) == expect
        assert expect[1] == "lower_bound"


def test_dnf_oracle_sees_both_statuses():
    certs = [
        _dnf_by_definition(t, s, DNF_BUDGET)
        for t in oracle_corpus(arrow(arrow(OO, O), O), 16)[:12]
        for s in oracle_corpus(arrow(arrow(OO, O), O), 16)[:12]
    ]
    assert {c[1] for c in certs} == {"exact", "lower_bound"}
    assert any(c[2] is not None for c in certs)


def oracle_dnf_per_level(ctx, t, s):
    """DnfContext._compute as a scan per level: at each level n from 0 it
    checks agreement, then every witness pair within 1/2^n against a
    Fraction threshold, then stabilization.  Inner distances and
    applications go through ctx's memo tables."""
    sort, budget = t.sort, ctx.witness_budget
    if not isinstance(sort, ArrowSort):
        return DistCertificate(ZERO if t.term == s.term else ONE, "exact", budget)
    witnesses, exhausted = ctx.witnesses(sort.dom)
    stabilize = max(nf_depth(t.term), nf_depth(s.term))
    level = agreement_level(t, s)
    best, prior_certified = None, True

    def fail(failing, fail_certified):
        value = ONE if best is None else ExtReal(F(1, 2**best))
        exact = fail_certified and (best is None or prior_certified)
        return DistCertificate(value, "exact" if exact else "lower_bound", budget, failing)

    n = 0
    while True:
        threshold = F(1, 2**n)
        if level is not None and n > level:
            return fail(None, True)
        certified = exhausted or n == 0
        # level 0 is vacuous: every distance is at most 1
        for v, w in itertools.combinations_with_replacement(witnesses if n else [], 2):
            pair = ctx.distance(v, w)
            if pair.value.value > threshold:
                continue
            for side in (t, s):
                out = ctx.distance(ctx._apply(side, v), ctx._apply(side, w))
                if out.value.value > threshold:
                    return fail((v.term, w.term), pair.status == "exact")
                certified = certified and out.status == "exact"
        best, prior_certified = n, prior_certified and certified
        if n >= stabilize:
            status = "exact" if prior_certified else "lower_bound"
            return DistCertificate(ZERO, status, budget)
        n += 1


class _PerLevelContext(DnfContext):
    def _compute(self, t, s):
        # the memo entry of the certificate: (level, exact, failing witness)
        cert = oracle_dnf_per_level(self, t, s)
        v = cert.value.value
        level = v.denominator.bit_length() - 1 if v else math.inf
        return level, cert.status == "exact", cert.failing_witness


NF_CONSTANTS = {"c1": O, "c2": O}
# sort, enumeration budget, terms kept, witness budget: the nf-distances
# corpora, a third-order sort whose pairs reach lower bounds, and one
# whose pairs fail above level 1
PER_LEVEL_CORPORA = (
    ("(o->o)->o", 140, 200, 12),
    ("(o->o)->o->o", 120, 200, 12),
    ("o->(o->o)->o", 140, 200, 12),
    ("((o->o)->o)->o", 16, 25, 7),
    ("((o->o)->o)->(o->o)->o", 16, 400, 8),
)


def test_one_pass_dnf_matches_per_level_oracle():
    statuses, failing = set(), 0
    for sort_text, budget, keep, witness_budget in PER_LEVEL_CORPORA:
        terms, _ = enumerate_closed_nfs(parse_sort(sort_text), budget, NF_CONSTANTS)
        terms = terms[:keep]
        rng = random.Random(sort_text)
        pairs = [(rng.randrange(len(terms)), rng.randrange(len(terms))) for _ in range(40)]
        fast = DnfContext(witness_budget, NF_CONSTANTS)
        slow = _PerLevelContext(witness_budget, NF_CONSTANTS)
        for i, j in pairs + [(i, i) for i, _ in pairs[:5]]:
            got, want = fast.distance(terms[i], terms[j]), slow.distance(terms[i], terms[j])
            got, want = ((c.value, c.status, c.failing_witness) for c in (got, want))
            assert got == want, (sort_text, i, j)
            statuses.add(got[1])
            failing += got[2] is not None
        # the same applications normalized, the same distances memoized
        assert fast._applied == slow._applied, sort_text
        assert fast._memo == slow._memo, sort_text
    assert statuses == {"exact", "lower_bound"} and failing


def test_dnf_fails_a_self_distance_at_its_stabilization_depth():
    # A witness pair failing exactly at level depth(t) of d(t, t) is a
    # failure, not a stabilized 0; no corpus reaches this tie, so the
    # context is built by hand: its one witness pair (v, w) lies within
    # 1/4, and t's outputs on it 1/2 apart, so it fails level 2 = depth(t).
    t = nf("\\f:o->o. f (f c1)")
    v, w = nf("\\x:o. c1"), nf("\\x:o. c2")
    assert nf_depth(t.term) == 2
    certs = []
    for ctx in (DnfContext(4, REMARK25_CONSTANTS), _PerLevelContext(4, REMARK25_CONSTANTS)):
        ctx._witnesses[OO] = ([v, w], True)
        # memo entries (level, exact, failing witness): 1/4 and 1/2, exact
        ctx._memo[(v.term, w.term)] = (2, True, None)
        c1, c2 = ctx._apply(t, v), ctx._apply(t, w)
        assert (c1.term, c2.term) == (Const("c1", O), Const("c2", O))
        ctx._memo[(c1.term, c2.term)] = (1, True, None)
        cert = ctx.distance(t, t)
        certs.append((cert.value, cert.status, cert.failing_witness))
    assert certs[0] == certs[1] == (HALF, "exact", (v.term, w.term))


# the nf-distances corpora and two higher-order sorts whose pairs reach
# lower bounds, with their enumeration budgets
MONOTONE_SORTS = (
    ("(o->o)->o", 140),
    ("(o->o)->o->o", 120),
    ("o->(o->o)->o", 140),
    ("((o->o)->o)->o", 20),
    ("(((o->o)->o)->o)->o", 14),
)


def test_dnf_is_monotone_in_the_witness_budget():
    """More witnesses never move a value certified exact, and never lower
    a value: a lower bound can only rise."""
    contexts = [DnfContext(b, NF_CONSTANTS) for b in (4, 6, 8, 10, 12)]
    compared = risen = 0
    for sort_text, budget in MONOTONE_SORTS:
        terms, _ = enumerate_closed_nfs(parse_sort(sort_text), budget, NF_CONSTANTS)
        terms = terms[:100]
        rng = random.Random(sort_text)
        for t, s in [(rng.choice(terms), rng.choice(terms)) for _ in range(150)]:
            certs = [ctx.distance(t, s) for ctx in contexts]
            for low, high in zip(certs, certs[1:]):
                exact = low.status == "exact"
                ok = high.value == low.value if exact else high.value >= low.value
                assert ok, (sort_text, print_term(t.term), print_term(s.term))
                compared += 1
                risen += high.value > low.value
    assert compared == 3000 and risen


def term_size(t):
    return sum(1 for _ in subterms(t))


def _bottoms(t):
    return sum(isinstance(u, Bottom) for u in subterms(t))


@pytest.mark.parametrize("sort", C07_SORTS + (arrow(arrow(OO, O), O),))
def test_enumerator_carries_sizes_and_bottoms(sort):
    entries = _Enumerator(REMARK25_CONSTANTS).generate(sort, 30)
    assert entries
    for t, size, bots in entries:
        assert (size, bots) == (term_size(t), _bottoms(t))


class _BudgetEnumerator:
    """The enumerator by definition: every list is keyed by its size budget
    and built from scratch, and truncated records whether any construction
    was cut off by the budget.  Binders are named by depth, w{k}, as in
    _Enumerator."""

    def __init__(self, constants):
        self.constants = dict(constants)
        self.truncated = False
        self._memo = {}

    def _gen(self, sort, pool, budget):
        key = (sort, pool, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = []
        if isinstance(sort, ArrowSort):
            if budget < _min_size(sort):
                self.truncated = True
            else:
                name = f"w{len(pool)}"
                for body, size, bots in self._gen(sort.cod, pool + ((name, sort.dom),), budget - 1):
                    out.append((Lam(name, sort.dom, body), 1 + size, bots))
        else:
            if budget >= 1:
                out.append((Bottom(sort), 1, 1))
                for cname, csort in self.constants.items():
                    if csort == sort:
                        out.append((Const(cname, sort), 1, 0))
            else:
                self.truncated = True
            # pool lists the enclosing binders, outermost first
            for p, (_, psort) in enumerate(pool):
                arg_sorts, base = sort_spine(psort)
                if base != sort:
                    continue
                k = len(arg_sorts)
                head_cost = 1 + k
                if budget < head_cost + sum(_min_size(a) for a in arg_sorts):
                    self.truncated = True
                    continue
                for args, size, bots in self._tuples(arg_sorts, pool, budget - head_cost):
                    head = Bound(len(pool) - 1 - p, psort)
                    out.append((app(head, *args), head_cost + size, bots))
        self._memo[key] = out
        return out

    def _tuples(self, sorts, pool, budget):
        if not sorts:
            yield (), 0, 0
            return
        rest_min = sum(_min_size(s) for s in sorts[1:])
        for first, size, bots in self._gen(sorts[0], pool, budget - rest_min):
            for rest, rest_size, rest_bots in self._tuples(sorts[1:], pool, budget - size):
                yield (first,) + rest, size + rest_size, bots + rest_bots


def _enumerate_by_budget(sort, budget, constants):
    """Printed output and exhaustiveness of enumerate_closed_nfs, by the
    budget-keyed oracle."""
    enum = _BudgetEnumerator(constants)
    entries = sorted(enum._gen(sort, (), budget), key=lambda e: (e[2], e[1], print_term(e[0])))
    return [print_term(t) for t, _, _ in entries], not enum.truncated


# sort, largest budget: orders 0 to 4 over o, then sorts over o and p;
# budgets stay small where the count of argument trees grows like the
# Catalan numbers
ORACLE_SWEEP = (
    ("o", 16),
    ("o->o", 16),
    ("o->o->o", 16),
    ("(o->o)->o", 16),
    ("(o->o)->o->o", 16),
    ("o->(o->o)->o", 16),
    ("(o->o->o)->o", 13),
    ("(o->o)->(o->o)->o", 16),
    ("((o->o)->o)->o", 16),
    ("((o->o)->o)->o->o", 16),
    ("(((o->o)->o)->o)->o", 16),
    ("(o->p)->p", 9),
    ("(o->p)->o", 9),
    ("(p->o)->(o->p)->o", 9),
)


@pytest.mark.parametrize("sort_text, top", ORACLE_SWEEP)
def test_enumeration_matches_budget_oracle(sort_text, top):
    sort = parse_sort(sort_text)
    for constants in ({}, REMARK25_CONSTANTS):
        for budget in range(top + 1):
            terms, exhaustive = enumerate_closed_nfs(sort, budget, constants)
            got = [print_term(t.term) for t in terms], exhaustive
            assert got == _enumerate_by_budget(sort, budget, constants), budget


@pytest.mark.parametrize(
    "sort_text, budget, count, exhaustive",
    [
        ("o->o->o", 2, 0, False),
        ("o->o->o", 3, 3, True),
        ("(o->p)->p", 3, 1, False),
        ("(o->p)->p", 4, 2, True),
        ("(o->p)->p", 9, 2, True),
        ("(o->p)->o", 1, 0, False),
        ("(o->p)->o", 2, 1, True),
        ("(o->p)->o", 9, 1, True),
    ]
    + [("(o->o)->o", b, c, False) for b, c in ((0, 0), (1, 0), (2, 1), (5, 2), (10, 5), (30, 15))],
)
def test_exhaustive_means_no_larger_normal_form(sort_text, budget, count, exhaustive):
    terms, got = enumerate_closed_nfs(parse_sort(sort_text), budget)
    assert (len(terms), got) == (count, exhaustive)


# printed output of enumerate_closed_nfs at the criterion-07 sorts, at a
# third-order sort, and at the s4 corpus whose pairs
# test_memoized_dnf_matches_definition_on_uncertain_witness_pairs picks by
# index
ENUMERATION_DIGESTS = {
    "(o->o)->o": (60, 90, "25cff1e53b3c49b6ee06b141b2e653a50b5dd4e9b3e92a071147b9f7bdfe120d"),
    "(o->o)->o->o": (50, 96, "d5f0376db15290788ee806adfb8592a4355055c61c51bd6c8629db6bc88a7ca4"),
    "o->(o->o)->o": (60, 116, "0c3336a624b9f0eb74726eef2f5491f0315b898386dc2487209dd832ada0cd97"),
    "((o->o)->o)->o": (16, 25, "f07dfc06eaa0b5c10556da5f63546c7cd240ccb80225f65fe8dc2c885c858c41"),
    "(((o->o)->o)->o)->o": (14, 120, "b8d69ad6c3a11cd56c8827aec4f37c8c94ecc467ed4ce44e471e9a219a42883b"),
}


@pytest.mark.parametrize("sort_text", sorted(ENUMERATION_DIGESTS))
def test_enumeration_output_unchanged(sort_text):
    budget, count, digest = ENUMERATION_DIGESTS[sort_text]
    terms, exhaustive = enumerate_closed_nfs(parse_sort(sort_text), budget, REMARK25_CONSTANTS)
    printed = [print_term(t.term) for t in terms]
    assert (len(terms), exhaustive) == (count, False)
    assert hashlib.sha256("\n".join(printed).encode()).hexdigest() == digest
    # the order is the walking sort key the carried sizes replace
    key = [(_bottoms(t.term), term_size(t.term), p) for t, p in zip(terms, printed)]
    assert key == sorted(key)


# the enumerations of the nf-distances workload: sort, budget, constants
NF_ENUMERATIONS = (
    ("(o->o)->o", 140, NF_CONSTANTS),
    ("(o->o)->o->o", 120, NF_CONSTANTS),
    ("o->(o->o)->o", 140, NF_CONSTANTS),
    ("o->o", 30, NF_CONSTANTS),
    ("(o->o)->o->o", 40, {}),
)


@pytest.mark.parametrize("sort_text, budget, constants", NF_ENUMERATIONS)
def test_witnesses_are_closed_and_sorted_by_printed_key(sort_text, budget, constants):
    # the sort key prints the terms as closed, with no look for free names
    terms, _ = enumerate_closed_nfs(parse_sort(sort_text), budget, constants)
    assert terms and not any(free_vars(t.term) for t in terms)
    assert terms == sorted(
        terms, key=lambda t: (_bottoms(t.term), term_size(t.term), print_term(t.term))
    )


def _subterms_by_recursion(t):
    yield t
    if isinstance(t, App):
        yield from _subterms_by_recursion(t.fn)
        yield from _subterms_by_recursion(t.arg)
    elif isinstance(t, Lam):
        yield from _subterms_by_recursion(t.body)


@seed(20223)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(C07_SORTS + (OO,)), st.data())
def test_subterms_is_preorder(sort, data):
    terms = oracle_corpus(sort)
    t = terms[data.draw(st.integers(0, len(terms) - 1))].term
    # applying a term to itself under a binder mixes App, Lam and Bound
    for u in (t, Lam("x", sort, App(Var("g", arrow(sort, sort)), t))):
        got, want = list(subterms(u)), list(_subterms_by_recursion(u))
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_subterms_walks_a_deep_spine():
    untyped = Signature(untyped=True)
    x = parse_term("x", untyped)
    spine = x
    for _ in range(10_000):
        spine = App(spine, x)
    assert term_size(spine) == 20_001
