import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlam.errors import OutOfFuelError, PreconditionError, QlamError, SortError, StructuralError
from qlam.rewrite_engine import (
    DEFAULT_FUEL,
    NormalForm,
    beta_normalize,
    bracket_abstract,
    cl_reduce,
    normalize,
    open_bound,
    shift,
)
from qlam.term_metrics import enumerate_closed_nfs, project
from qlam.term_syntax import (
    _TermTable,
    App,
    ArrowSort,
    BaseSort,
    Bottom,
    Bound,
    Const,
    Lam,
    STAR,
    Signature,
    Var,
    app,
    arrow,
    bind,
    free_vars,
    parse_term,
    print_term,
    render_sort,
    substitute,
    subterms,
)
from test_term_syntax import typed_term

O = BaseSort("o")
OO = arrow(O, O)
SIG = Signature(constants={"c": O})


def term(text, sig=SIG, var_sorts=None):
    return parse_term(text, sig, var_sorts)


# ---------------------------------------------------------------------------
# Beta normalization


def test_beta_redex_reduces():
    t = term("(\\x:o. f:o->o x) c")
    assert beta_normalize(t) == term("f:o->o c")


def test_normalize_is_idempotent():
    t = term("(\\f:o->o. \\x:o. f (f x)) (\\y:o. y)")
    nf = normalize(t)
    assert normalize(nf.term).term == nf.term


def test_normal_form_certificate_rejects_redex():
    with pytest.raises(PreconditionError):
        NormalForm(term("(\\x:o. x) c"))


def test_eta_long_certificate():
    f = Var("f", OO)
    assert not is_eta_long(f)
    with pytest.raises(PreconditionError, match="^term is not eta-long$"):
        NormalForm(f)
    expanded = normalize(f).term
    assert is_eta_long(expanded)
    assert expanded == bind("e0", O, App(f, Var("e0", O)))


def test_normal_form_reports_beta_before_eta():
    # a redex of arrow sort in argument position breaks both conditions
    redex = App(Lam("x", OO, Bound(0, OO)), Var("f", OO))
    assert not is_beta_normal(redex) and not is_eta_long(redex)
    with pytest.raises(PreconditionError, match="^term is not beta-normal$"):
        NormalForm(redex)


def test_normalize_eta_expands_typed_terms():
    g = Var("g", arrow(OO, O))
    nf = normalize(g)
    assert is_eta_long(nf.term)
    assert nf.term.sort == g.sort


def test_untyped_divergence_runs_out_of_fuel():
    omega = term("(\\x. x x) (\\x. x x)", Signature(untyped=True))
    with pytest.raises(OutOfFuelError):
        beta_normalize(omega, fuel=500)


def test_untyped_normalizable_despite_divergent_argument():
    sig = Signature(untyped=True)
    t = term("(\\x. \\y. y) ((\\x. x x) (\\x. x x))", sig)
    assert beta_normalize(t, fuel=500) == term("\\y. y", sig)


def test_strategies_agree_on_normalizing_terms():
    cases = [
        "(\\f:o->o. \\x:o. f (f x)) (\\y:o. y)",
        "(\\x:o. f:o->o x) ((\\y:o. y) c)",
        "(\\x:o. \\y:o. x) c ((\\z:o. z) c)",
    ]
    for text in cases:
        t = term(text)
        assert beta_normalize(t) == oracle_beta_normalize(t, strategy="applicative")


def test_normalize_takes_a_deep_untyped_spine():
    # at the default recursion limit: the normalizer must not recurse on
    # spine length
    assert sys.getrecursionlimit() <= 1000
    x = Var("x", STAR)
    t = app(x, *[x] * 10000)
    assert normalize(t).term == t


# ---------------------------------------------------------------------------
# Oracles: the normal-form conditions by definition, which NormalForm
# checks in one walk


def is_beta_normal(t):
    return not any(isinstance(s, App) and isinstance(s.fn, Lam) for s in subterms(t))


def is_eta_long(t):
    """Every subterm of arrow sort outside function position is a lambda."""

    def go(t, fn_position):
        if not fn_position and isinstance(t.sort, ArrowSort) and not isinstance(t, Lam):
            return False
        if isinstance(t, Lam):
            return go(t.body, False)
        if isinstance(t, App):
            return go(t.fn, True) and go(t.arg, False)
        return True

    return go(t, False)


def _certificate(t):
    try:
        NormalForm(t)
    except PreconditionError as exc:
        return str(exc)
    return None


def _oracle_certificate(t):
    if not is_beta_normal(t):
        return "term is not beta-normal"
    if t.sort is not STAR and not is_eta_long(t):
        return "term is not eta-long"
    return None


def test_normal_form_agrees_with_oracles():
    """On the criterion-07 corpora, their projections and every subterm of
    both (open subterms and heads in function position included), and on
    hand-built redexes and unexpanded variables."""
    consts = {"c1": O, "c2": O}
    cases = []
    for sort, budget in ((arrow(OO, O), 140), (arrow(OO, OO), 120), (arrow(O, arrow(OO, O)), 140)):
        nfs, _ = enumerate_closed_nfs(sort, budget, constants=consts)
        for nf in nfs[:200]:
            for t in (nf.term, project(nf, 1).term):
                cases += subterms(t)
                cases.append(App(Lam("z", sort, Bound(0, sort)), t))
    f, g, x = Var("f", OO), Var("g", arrow(OO, O)), Var("x", STAR)
    identity = Lam("y", O, Bound(0, O))
    cases += [
        f, g, App(g, f), App(identity, Const("c", O)), Lam("h", OO, App(identity, Var("y", O))),
        App(Lam("y", STAR, Bound(0, STAR)), x), Var("u", STAR),
    ]
    # an untyped head takes no typed argument, so no mixed term reaches
    # the certificate
    with pytest.raises(SortError):
        App(x, Var("f", OO))
    outcomes = set()
    for t in cases:
        want = _oracle_certificate(t)
        assert _certificate(t) == want, t
        outcomes.add(want)
    assert outcomes == {None, "term is not beta-normal", "term is not eta-long"}


# ---------------------------------------------------------------------------
# Oracles: the recursive kernel the binder walk and the spine normalizer
# replaced, one rebuild per operation and one normalizer per strategy


def oracle_shift(t, d, cutoff=0):
    if isinstance(t, Bound):
        if t.index >= cutoff:
            return Bound(t.index + d, t.sort)
        return t
    if isinstance(t, App):
        return App(oracle_shift(t.fn, d, cutoff), oracle_shift(t.arg, d, cutoff))
    if isinstance(t, Lam):
        return Lam(t.hint, t.var_sort, oracle_shift(t.body, d, cutoff + 1))
    return t


def oracle_open_bound(body, arg):
    def go(t, depth):
        if isinstance(t, Bound):
            if t.index == depth:
                return oracle_shift(arg, depth) if depth else arg
            if t.index > depth:
                return Bound(t.index - 1, t.sort)
            return t
        if isinstance(t, App):
            return App(go(t.fn, depth), go(t.arg, depth))
        if isinstance(t, Lam):
            return Lam(t.hint, t.var_sort, go(t.body, depth + 1))
        return t

    return go(body, 0)


def oracle_bind(name, sort, body):
    def go(t, depth):
        if isinstance(t, Var):
            if t.name == name:
                if t.sort != sort:
                    raise SortError(f"variable {name} bound at a different sort")
                return Bound(depth, sort)
            return t
        if isinstance(t, App):
            return App(go(t.fn, depth), go(t.arg, depth))
        if isinstance(t, Lam):
            return Lam(t.hint, t.var_sort, go(t.body, depth + 1))
        return t

    return Lam(name, sort, go(body, 0))


def _locally_closed(t, depth):
    if isinstance(t, Bound):
        return t.index < depth
    if isinstance(t, App):
        return _locally_closed(t.fn, depth) and _locally_closed(t.arg, depth)
    if isinstance(t, Lam):
        return _locally_closed(t.body, depth + 1)
    return True


def oracle_substitute(t, env):
    for name, image in env.items():
        if not _locally_closed(image, 0):
            raise StructuralError(f"substitution image for {name} has stray indices")

    def go(t):
        if isinstance(t, Var):
            image = env.get(t.name)
            if image is None:
                return t
            if image.sort != t.sort:
                raise SortError(
                    f"substitution for {t.name} has sort "
                    f"{render_sort(image.sort)}, expected {render_sort(t.sort)}"
                )
            return image
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Lam):
            return Lam(t.hint, t.var_sort, go(t.body))
        return t

    return go(t)


class _OracleBudget:
    def __init__(self, fuel):
        self.left = fuel

    def spend(self):
        if self.left is None:
            return
        if self.left == 0:
            raise OutOfFuelError("step budget exhausted")
        self.left -= 1


def _oracle_whnf(t, budget):
    while True:
        if not isinstance(t, App):
            return t
        fn = _oracle_whnf(t.fn, budget)
        if isinstance(fn, Lam):
            budget.spend()
            t = oracle_open_bound(fn.body, t.arg)
            continue
        return t if fn is t.fn else App(fn, t.arg)


def _oracle_nf_normal(t, budget):
    t = _oracle_whnf(t, budget)
    if isinstance(t, Lam):
        return Lam(t.hint, t.var_sort, _oracle_nf_normal(t.body, budget))
    if isinstance(t, App):
        return App(_oracle_nf_normal(t.fn, budget), _oracle_nf_normal(t.arg, budget))
    return t


def _oracle_nf_applicative(t, budget):
    if isinstance(t, Lam):
        return Lam(t.hint, t.var_sort, _oracle_nf_applicative(t.body, budget))
    if isinstance(t, App):
        fn = _oracle_nf_applicative(t.fn, budget)
        arg = _oracle_nf_applicative(t.arg, budget)
        if isinstance(fn, Lam):
            budget.spend()
            return _oracle_nf_applicative(oracle_open_bound(fn.body, arg), budget)
        return App(fn, arg)
    return t


def oracle_beta_normalize(t, fuel=None, strategy="normal"):
    if t.sort is STAR and fuel is None:
        fuel = DEFAULT_FUEL
    nf = {"normal": _oracle_nf_normal, "applicative": _oracle_nf_applicative}[strategy]
    return nf(t, _OracleBudget(fuel))


def _outcome(f, *args):
    """The value of f(*args) with its term-table JSON text, so binder hints
    count, or the type and message of what it raised."""
    try:
        t = f(*args)
    except QlamError as exc:
        return type(exc), str(exc)
    table = _TermTable()
    root = table.index(t)
    return t, json.dumps([table.records, root])


FUELS = (None, 0, 1, 3, 20)


def _agree_on(t, rng, names, images):
    """The kernel and its oracle agree on t: shifted, opened, bound over,
    substituted into and normalized at every fuel."""
    for d in (1, 2, -1, 3):
        assert _outcome(shift, t, d) == _outcome(oracle_shift, t, d)
    body = t.body if isinstance(t, Lam) else t
    arg = rng.choice(images)
    assert _outcome(open_bound, body, arg) == _outcome(oracle_open_bound, body, arg)
    name = rng.choice(names)
    sort = rng.choice(images).sort
    assert _outcome(bind, name, sort, t) == _outcome(oracle_bind, name, sort, t)
    env = {n: rng.choice(images) for n in rng.sample(names, rng.randint(1, len(names)))}
    assert _outcome(substitute, t, env) == _outcome(oracle_substitute, t, env)
    for fuel in FUELS:
        assert _outcome(beta_normalize, t, fuel) == _outcome(oracle_beta_normalize, t, fuel)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(typed_term(sort=OO, depth=4), st.randoms(use_true_random=False))
def test_kernel_agrees_with_oracle_on_typed_terms(t, rng):
    subs = list(subterms(t))  # images of every sort, some with stray indices
    names = sorted(free_vars(t)) + ["x"]
    _agree_on(t, rng, names, subs)


UNTYPED_NAMES = ["f", "x", "y"]


def random_untyped_term(rng, depth, binders=0):
    """A random untyped term whose indices may point past its binders."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return Var(rng.choice(UNTYPED_NAMES), STAR)
        if kind == 1:
            return Bound(rng.randrange(binders + 2), STAR)
        if kind == 2:
            return Const(rng.choice("IKS"), STAR)
        return Bottom(STAR)
    if r < 0.45:
        return Lam(rng.choice("xyz"), STAR, random_untyped_term(rng, depth - 1, binders + 1))
    fn = random_untyped_term(rng, depth - 1, binders)
    if r < 0.6:  # a redex
        fn = Lam(rng.choice("xyz"), STAR, fn)
    return App(fn, random_untyped_term(rng, depth - 1, binders))


def test_kernel_agrees_with_oracle_on_untyped_terms():
    rng = random.Random(20261018)
    for _ in range(2000):
        t = random_untyped_term(rng, rng.randint(0, 6))
        images = [random_untyped_term(rng, rng.randint(0, 3)) for _ in range(3)]
        _agree_on(t, rng, UNTYPED_NAMES, images)


def test_normalizer_agrees_with_oracle_on_divergent_terms():
    omega, grow, fix = (
        term(text, Signature(untyped=True))
        for text in ["(\\x. x x) (\\x. x x)", "(\\x. x x x) (\\x. x x x)", "(\\x. f (x x)) (\\x. f (x x))"]
    )
    # the oracle recurses on spine length and nesting depth, so only omega
    # keeps its size over the default budget; fix nests one argument per
    # step, and at 600 steps both still run out of fuel, not of stack
    for t, fuels in ((omega, FUELS), (grow, FUELS[1:]), (fix, FUELS[1:] + (600,))):
        for fuel in fuels:
            assert _outcome(beta_normalize, t, fuel) == _outcome(oracle_beta_normalize, t, fuel)
            assert _outcome(beta_normalize, t, fuel)[0] is OutOfFuelError


def test_strategies_agree_on_random_normalizing_terms():
    rng = random.Random(7)
    compared = 0
    for _ in range(1000):
        t = random_untyped_term(rng, rng.randint(0, 6))
        try:
            nf = oracle_beta_normalize(t, 200, "applicative")
        except OutOfFuelError:
            continue
        compared += 1
        assert beta_normalize(t) == nf
    assert compared > 500


# ---------------------------------------------------------------------------
# Combinatory reduction


USIG = Signature(untyped=True)


def test_skk_reduces_to_argument():
    red = cl_reduce(term("S K K x", USIG))
    assert print_term(red.result) == "x"
    assert red.step_count == 2
    assert not red.out_of_fuel
    assert [s.rule for s in red.steps] == ["S", "K"]


def test_cl_trace_paths_replay():
    red = cl_reduce(term("f (I x) (K y z)", USIG))
    assert print_term(red.result) == "f x y"
    assert all(s.path for s in red.steps)


def test_cl_out_of_fuel_flag():
    loop = term("S I I (S I I)", USIG)
    red = cl_reduce(loop, fuel=50)
    assert red.out_of_fuel
    assert red.step_count == 50


def test_typed_skk_instance():
    s = term("S:(o->(o->o)->o)->(o->o->o)->o->o K:o->(o->o)->o K:o->o->o x:o", Signature())
    red = cl_reduce(s)
    assert print_term(red.result) == "x"
    assert red.step_count == 2


# ---------------------------------------------------------------------------
# Bracket abstraction


def random_cl_term(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.4:
        pool = vars_ + ["I", "K", "S"]
        name = rng.choice(pool)
        if name in ("I", "K", "S"):
            return Const(name, STAR)
        return Var(name, STAR)
    return App(
        random_cl_term(rng, vars_, depth - 1),
        random_cl_term(rng, vars_, depth - 1),
    )


def test_bracket_abstraction_simulates_substitution():
    rng = random.Random(20260823)
    for trial in range(1000):
        t = random_cl_term(rng, ["x", "y", "z"], rng.randint(1, 4))
        u = random_cl_term(rng, ["y", "z"], rng.randint(0, 3))
        lam = bracket_abstract(Var("x", STAR), t)
        lhs = cl_reduce(App(lam, u), fuel=20000)
        rhs = cl_reduce(substitute(t, {"x": u}), fuel=20000)
        assert not lhs.out_of_fuel and not rhs.out_of_fuel
        assert lhs.result == rhs.result, print_term(t)


def test_bracket_result_has_no_abstracted_variable():
    t = term("x (y x)", USIG)
    lam = bracket_abstract(Var("x", STAR), t)
    assert "x" not in print_term(lam).split()


def test_bracket_rejects_binders():
    with pytest.raises(PreconditionError):
        bracket_abstract(Var("x", STAR), Lam("y", STAR, Bound(0, STAR)))


def test_typed_bracket_simulation():
    h, x, y = Var("h", OO), Var("x", O), Var("y", O)
    t = App(h, x)
    lam = bracket_abstract(x, t)
    assert lam.sort == OO
    lhs = cl_reduce(App(lam, y)).result
    rhs = cl_reduce(substitute(t, {"x": y})).result
    assert lhs == rhs
