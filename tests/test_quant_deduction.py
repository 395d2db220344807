import ast
import inspect
import json
import re
from fractions import Fraction as F

import pytest

from qlam.corpus import CL_TRIPLES, corpus_derivations, corpus_theories
from qlam.errors import PreconditionError, StructuralError
from qlam.quant_deduction import (
    CheckResult,
    Derivation,
    Inference,
    QuantEquation,
    Theory,
    _RuleChecks,
    builtin_theory,
    check_derivation,
    d_axiom,
    d_refl,
    d_subst,
    derivation_from_json,
    derivation_to_json,
    derive_cl_reduction,
    derive_equal_reducts,
    interval_constant_name,
)
from qlam.rewrite_engine import bracket_abstract, cl_reduce
from qlam.term_syntax import (
    App,
    BaseSort,
    Bound,
    Const,
    Lam,
    STAR,
    Signature,
    Var,
    app,
    arrow,
    substitute,
    term_to_json,
)

O = BaseSort("o")
OO = arrow(O, O)

THEORIES = corpus_theories()
DERIVS = corpus_derivations()


# ---------------------------------------------------------------------------
# Equations and inferences


def test_equation_validation():
    x = Var("x", O)
    with pytest.raises(StructuralError):
        QuantEquation(x, x, F(-1), O)
    with pytest.raises(StructuralError):
        QuantEquation(x, Var("f", OO), F(0), O)


def test_equation_json_roundtrip():
    """An inference document names its equations by index into one
    equation table, whose sides are indices into one term table, and
    round-trips through JSON text; a quantified variable decodes to the
    very object that its occurrences in the sides decode to."""
    x, y = Var("x", O), Var("y", O)
    eq = QuantEquation(x, y, F(1, 2), O, frozenset({x}))
    inf = Inference(frozenset({eq}), QuantEquation(y, x, F(1, 2), O, frozenset({x})))
    data = json.loads(json.dumps(inf.to_json()))
    assert data == {
        "terms": [{"node": "var", "name": "x", "sort": "o"}, {"node": "var", "name": "y", "sort": "o"}],
        "equations": [
            {"left": 0, "right": 1, "eps": "1/2", "sort": "o", "X": [{"name": "x", "sort": "o"}]},
            {"left": 1, "right": 0, "eps": "1/2", "sort": "o", "X": [{"name": "x", "sort": "o"}]},
        ],
        "hyps": [0],
        "eq": 1,
    }
    copy = Inference.from_json(data)
    assert copy == inf
    (hyp,) = copy.hypotheses
    assert next(iter(hyp.quantified)) is hyp.left is copy.conclusion.right


def test_interval_constant_names():
    assert interval_constant_name(F(0)) == "k0"
    assert interval_constant_name(F(1, 2)) == "k1_2"
    assert interval_constant_name(F(3, 8)) == "k3_8"


@pytest.mark.parametrize("key", sorted(THEORIES))
def test_theory_json_roundtrip(key):
    th = THEORIES[key]
    text = json.dumps(th.to_json())
    again = Theory.from_json(json.loads(text))
    assert again == th  # the derived axioms and flags too


def test_theory_file_defaults_and_stock_names():
    th = Theory.from_json({"name": "U_CL", "signature": {"untyped": True}})
    assert th == THEORIES["U_CL_untyped"]
    with pytest.raises(PreconditionError):
        Theory.from_json({"name": "U_nonsense", "signature": {}})
    # only the interval theories carry interval values and tables
    from qlam.corpus import I01

    with pytest.raises(PreconditionError, match="takes no interval values"):
        builtin_theory("U_CL", Signature(constants={"k0": I01}), interval_values={"k0": F(0)})
    with pytest.raises(PreconditionError):
        builtin_theory("U_CL_interval", Signature(), interval_values={"k0": F(0)})


def test_interval_axiom_needs_the_value_gap():
    from qlam.corpus import I01

    th = THEORIES["U_CL_interval"]
    k0, k12 = Const("k0", I01), Const("k1_2", I01)

    def axiom(eps, hyps=frozenset()):
        return Derivation("Axiom", Inference(hyps, QuantEquation(k0, k12, eps, I01)))

    assert check_derivation(axiom(F(1, 2)), th).ok
    assert not check_derivation(axiom(F(3, 8)), th).ok
    hyp = QuantEquation(k0, k0, F(0), I01)
    assert not check_derivation(axiom(F(1, 2), frozenset({hyp})), th).ok


# ---------------------------------------------------------------------------
# The shipped corpus checks


@pytest.mark.parametrize("theory_name", sorted(DERIVS))
def test_corpus_derivations_all_check(theory_name):
    th = THEORIES[theory_name]
    for name, d in DERIVS[theory_name]:
        result = check_derivation(d, th)
        assert result.ok, (name, result.reason, result.path)


def test_corpus_spans_all_rules():
    seen = set()

    def walk(d):
        seen.add(d.rule)
        for p in d.premises:
            walk(p)

    for lst in DERIVS.values():
        for _, d in lst:
            walk(d)
    expected = {
        "Assumpt", "Refl", "PRefl", "Symm", "Triang", "Max", "NExp",
        "Axiom", "Subst", "Cut", "Alpha", "Xi", "Beta", "Eta",
        "Abstraction", "Concretion",
    }
    assert expected <= seen


def test_corpus_has_at_least_thirty_derivations():
    assert sum(len(v) for v in DERIVS.values()) >= 30


def test_derivation_json_roundtrip():
    for theory_name, lst in DERIVS.items():
        th = THEORIES[theory_name]
        for name, d in lst:
            again = derivation_from_json(derivation_to_json(d))
            assert check_derivation(again, th).ok, name


# ---------------------------------------------------------------------------
# Rule side conditions


def cl_theory():
    return THEORIES["U_CL"]


def test_axiom_leaf_is_a_member_and_its_instances_come_through_subst():
    """An Axiom leaf is a listed axiom: a renamed instance is rejected as a
    leaf and checks as a Subst over the axiom."""
    th = cl_theory()
    ax = next(
        a
        for a in th.axioms
        if isinstance(a.conclusion.left.fn, Const)
        and a.conclusion.left.fn.name == "I"
    )
    fresh = Var("fresh", O)
    renamed = QuantEquation(App(ax.conclusion.left.fn, fresh), fresh, F(0), O)
    d = Derivation("Axiom", Inference(frozenset(), renamed))
    assert check_derivation(d, th) == CheckResult(
        False, (), "Axiom node matches no theory axiom or schema"
    )
    instance = d_subst(d_axiom(ax), {"x": fresh})
    assert instance.conclusion.conclusion == renamed
    assert check_derivation(instance, th).ok


def oracle_cl_axioms_typed(triples):
    """The typed I, K and S axioms written out by hand, each instance once."""
    axioms = []
    seen = set()
    for i, j, k in triples:
        x, y, z = Var("x", i), Var("y", arrow(i, j)), Var("z", arrow(i, arrow(j, k)))
        s_sort = arrow(arrow(i, arrow(j, k)), arrow(arrow(i, j), arrow(i, k)))
        items = [
            (("I", i), QuantEquation(App(Const("I", arrow(i, i)), x), x, F(0), i)),
            (("K", i, j), QuantEquation(app(Const("K", arrow(i, arrow(j, i))), x, Var("v", j)), x, F(0), i)),
            (("S", i, j, k), QuantEquation(app(Const("S", s_sort), z, y, x), App(App(z, x), App(y, x)), F(0), k)),
        ]
        for key, eq in items:
            if key not in seen:
                seen.add(key)
                axioms.append(Inference(frozenset(), eq))
    return axioms


def oracle_cl_axioms_untyped():
    x, y, z = Var("x", STAR), Var("y", STAR), Var("z", STAR)
    i_eq = QuantEquation(App(Const("I", STAR), x), x, F(0), STAR)
    k_eq = QuantEquation(app(Const("K", STAR), x, y), x, F(0), STAR)
    s_eq = QuantEquation(app(Const("S", STAR), z, y, x), App(App(z, x), App(y, x)), F(0), STAR)
    return [Inference(frozenset(), eq) for eq in (i_eq, k_eq, s_eq)]


def test_cl_axioms_are_the_contractions_at_the_combinator_sorts():
    """The CL axioms agree with the hand-written lists, in order, except
    that typed K's second variable is y, as in the untyped regime; and
    each left side takes exactly one root reduction step to its right."""
    # a repeated instance gives its axioms once
    triples = CL_TRIPLES + CL_TRIPLES[:1]
    typed = builtin_theory("U_CL", Signature(combinator_sorts=triples))
    untyped = builtin_theory("U_CL", Signature(untyped=True))
    assert list(untyped.axioms) == oracle_cl_axioms_untyped()
    oracle = oracle_cl_axioms_typed(triples)
    assert len(typed.axioms) == len(oracle) == 8
    renamed_k = 0
    for new, old in zip(typed.axioms, oracle):
        if new != old:
            left = old.conclusion.left
            assert left.fn.fn.name == "K"
            y = Var("y", left.arg.sort)
            want = QuantEquation(substitute(left, {"v": y}), old.conclusion.right, F(0), left.sort)
            assert new == Inference(frozenset(), want)
            renamed_k += 1
    assert renamed_k == 3
    for ax in typed.axioms + untyped.axioms:
        eq = ax.conclusion
        red = cl_reduce(eq.left)
        assert red.step_count == 1 and red.steps[0].path == ()
        assert red.result == eq.right and eq.eps == 0 and eq.sort == eq.left.sort


def test_axiom_rejects_non_variable_instantiation():
    th = cl_theory()
    i = Const("I", OO)
    c = Const("K", arrow(O, arrow(O, O)))
    eq = QuantEquation(App(i, app(c, Var("x", O), Var("y", O))),
                       app(c, Var("x", O), Var("y", O)), F(0), O)
    d = Derivation("Axiom", Inference(frozenset(), eq))
    assert not check_derivation(d, th).ok


def test_xi_requires_quantified_variable():
    th = THEORIES["U_lambda_interval"]
    from qlam.corpus import I01

    x, y = Var("x", I01), Var("y", I01)
    hyp = QuantEquation(x, y, F(1, 2), I01)
    lam = Lam("x", I01, Bound(0, I01))
    concl = QuantEquation(lam, lam, F(1, 2), arrow(I01, I01))
    d = Derivation("Xi", Inference(frozenset({hyp}), concl), params={"var": "x"})
    result = check_derivation(d, th)
    assert not result.ok
    assert result.reason == "ξ requires x ∈ X"


def test_beta_hygiene_is_enforced():
    th = THEORIES["U_lambda_interval"]
    from qlam.corpus import I01

    II = arrow(I01, I01)
    inner = Lam("y", I01, Bound(1, I01))
    lam = Lam("x", I01, inner)  # \x. \y. x
    y = Var("y", I01)
    redex = App(lam, y)
    naive = Lam("y", I01, y)  # captures y
    eq = QuantEquation(redex, naive, F(0), II)
    d = Derivation("Beta", Inference(frozenset(), eq))
    result = check_derivation(d, th)
    assert not result.ok
    assert result.reason == "β hygiene violated"


def test_checker_typechecks_equations():
    th = cl_theory()
    eq = QuantEquation(Const("zz", O), Const("zz", O), F(0), O)
    d = Derivation("Refl", Inference(frozenset(), eq))
    assert not check_derivation(d, th).ok


def _side_condition_table():
    """(theory, derivation, reason): the smallest derivation whose root
    breaks exactly one side condition of its rule, one per reason."""
    from qlam.corpus import I01

    I, II = I01, arrow(I01, I01)
    x, y, z, v, w = (Var(n, I) for n in "xyzvw")
    f, g = Var("f", II), Var("g", II)
    k0 = Const("k0", I)
    ident = Lam("v", I, Bound(0, I))

    def eq(left, right, eps=0, X=()):
        return QuantEquation(left, right, F(eps), left.sort, frozenset(X))

    def node(rule, hyps, concl, premises=(), **params):
        return Derivation(rule, Inference(frozenset(hyps), concl), tuple(premises), params)

    xy = eq(x, y, 1)
    redex = App(ident, x)
    # xi: from v ~1 y under X = {v}, abstract v on both sides
    xi_hyp = eq(v, y, 1, {v})
    xi = eq(Lam("v", I, Bound(0, I)), Lam("v", I, y), 1, {v})
    # beta hygiene: (\x. \y. x) y names the free y as a binder hint
    capture = App(Lam("x", I, Lam("y", I, Bound(1, I))), y)
    eta = eq(f, Lam("v", I, App(f, Bound(0, I))))
    symm = node("Symm", [xy], eq(y, x, 1))
    refl_x = d_refl(x)
    CL, PART, LAM, ETA = "U_CL_interval", "U_CL_partial", "U_lambda_interval", "U_lambda_eta_interval"
    return [
        (CL, node("Beta", [], eq(redex, x)), "Beta requires a lambda theory"),
        (CL, d_refl(x, frozenset({x})), "quantified variables need a lambda theory"),
        (ETA, node("Refl", [], eq(x, x), [refl_x]), "Refl is a leaf schema and takes no premises"),
        (ETA, node("Assumpt", [xy], eq(y, x, 1)), "Assumpt conclusion is not among the hypotheses"),
        (ETA, node("Refl", [xy], eq(x, x)), "Refl takes no hypotheses"),
        (ETA, node("Refl", [], eq(x, x, 1)), "Refl requires epsilon 0"),
        (ETA, node("Refl", [], eq(x, y)), "Refl requires identical sides"),
        (ETA, node("PRefl", [xy], eq(x, x, 1)), "PRefl is only available in partial theories"),
        (PART, node("PRefl", [], eq(x, x, 1)), "PRefl takes exactly one hypothesis"),
        (PART, node("PRefl", [xy], eq(x, x, 2)), "PRefl conclusion must be t ~ t at the hypothesis epsilon"),
        (PART, node("PRefl", [xy], xy), "PRefl requires identical sides"),
        (ETA, node("Symm", [], xy), "Symm takes exactly one hypothesis"),
        (ETA, node("Symm", [xy], xy), "Symm conclusion must flip the hypothesis"),
        (
            ETA,
            node("Triang", [xy, eq(y, z, 1)], eq(x, z, 3)),
            "Triang requires hypotheses t~s, s~u with epsilons summing exactly",
        ),
        (ETA, node("Max", [], xy), "Max takes exactly one hypothesis"),
        (ETA, node("Max", [xy], eq(x, z, 1)), "Max must keep the equation sides"),
        (ETA, node("Max", [xy], eq(x, y, F(1, 2))), "Max can only increase epsilon"),
        (ETA, node("NExp", [], eq(ident, ident)), "NExp does not apply to binder symbols"),
        (
            ETA,
            node("NExp", [eq(f, f, 1), eq(x, y, F(1, 2))], eq(App(f, x), App(f, y), 1)),
            "NExp hypotheses must equate the components at the same epsilon",
        ),
        (ETA, node("NExp", [xy], eq(k0, k0)), "NExp on a constant takes no hypotheses"),
        (ETA, node("NExp", [], eq(x, x)), "NExp applies to applications and constants"),
        (ETA, node("Alpha", [xy], eq(ident, ident)), "Alpha takes no hypotheses"),
        (ETA, node("Alpha", [], eq(ident, ident, 1)), "Alpha requires epsilon 0"),
        (ETA, node("Alpha", [], eq(x, x)), "Alpha applies to abstractions"),
        (ETA, node("Alpha", [], eq(ident, Lam("v", I, x))), "Alpha requires alpha-equivalent sides"),
        (ETA, node("Xi", [], xi, var="v"), "Xi takes exactly one hypothesis"),
        (ETA, node("Xi", [xi_hyp], eq(v, y, 1, {v}), var="v"), "Xi concludes between abstractions"),
        (ETA, node("Xi", [xi_hyp], xi), "Xi needs the abstracted variable in params"),
        (ETA, node("Xi", [eq(v, y, 1)], eq(xi.left, xi.right, 1), var="v"), "ξ requires x ∈ X"),
        (ETA, node("Xi", [xi_hyp], eq(xi.left, xi.right, 2, {v}), var="v"), "Xi keeps epsilon and the quantified set"),
        (
            ETA,
            node("Xi", [xi_hyp], eq(xi.left, Lam("v", I, x), 1, {v}), var="v"),
            "Xi conclusion must abstract the hypothesis sides",
        ),
        (ETA, node("Beta", [xy], eq(redex, x)), "Beta takes no hypotheses"),
        (ETA, node("Beta", [], eq(redex, x, 1)), "Beta requires epsilon 0"),
        (ETA, node("Beta", [], eq(x, x)), "Beta left side must be a redex"),
        (ETA, node("Beta", [], eq(capture, Lam("y", I, y))), "β hygiene violated"),
        (ETA, node("Beta", [], eq(redex, y)), "Beta right side must be the contractum"),
        (LAM, node("Eta", [], eta), "Eta is only available in extensional theories"),
        (ETA, node("Eta", [xy], eta), "Eta takes no hypotheses"),
        (ETA, node("Eta", [], eq(eta.left, eta.right, 1)), "Eta requires epsilon 0"),
        (
            ETA,
            node("Eta", [], eq(f, Lam("v", I, App(g, Bound(0, I))))),
            "Eta right side must be the expansion of the left",
        ),
        (ETA, node("Abstraction", [], eq(x, y, 1, {w})), "Abstraction takes exactly one hypothesis"),
        (ETA, node("Abstraction", [xy], eq(x, y, 2, {w})), "Abstraction must keep the equation"),
        (
            ETA,
            node("Abstraction", [eq(x, y, 1, {w})], xy),
            "Abstraction can only grow the quantified set",
        ),
        (
            ETA,
            node("Abstraction", [xy], eq(x, y, 1, {x})),
            "Abstraction requires the sides to avoid the quantified set",
        ),
        (ETA, node("Concretion", [], xy), "Concretion takes exactly one hypothesis"),
        (ETA, node("Concretion", [eq(x, y, 1, {w})], eq(x, y, 2)), "Concretion must keep the equation"),
        (ETA, node("Concretion", [xy], eq(x, y, 1, {w})), "Concretion can only shrink the quantified set"),
        (CL, node("Axiom", [], xy), "Axiom node matches no theory axiom or schema"),
        (ETA, node("Cut", [], eq(x, x)), "Cut needs at least the main premise"),
        (ETA, node("Cut", [], eq(y, y), [refl_x]), "Cut conclusion must come from the main premise"),
        (
            ETA,
            node("Cut", [], symm.conclusion.conclusion, [refl_x, symm]),
            "Cut side premises must prove the main premise's hypotheses",
        ),
        (
            ETA,
            node("Cut", [], symm.conclusion.conclusion, [node("Assumpt", [xy], xy), symm]),
            "Cut side premises must share the conclusion's hypotheses",
        ),
        (ETA, node("Subst", [], eq(y, y), env={"x": y}), "Subst takes exactly one premise"),
        (ETA, node("Subst", [], eq(y, y), [refl_x]), "Subst needs a substitution in params"),
        (ETA, node("Subst", [], eq(y, y), [refl_x], env={"x": "y"}), "Subst substitution must map names to terms"),
        (
            ETA,
            node("Subst", [], eq(y, y, 0, {x}), [d_refl(x, frozenset({x}))], env={"x": y}),
            "Subst must be the identity on the quantified set",
        ),
        (
            ETA,
            node("Subst", [], eq(Lam("y", I, x), Lam("y", I, x)), [d_refl(Lam("y", I, x))], env={"z": y}),
            "Subst hygiene violated",
        ),
        (
            ETA,
            node("Subst", [], eq(x, x), [refl_x], env={"x": Bound(0, I)}),
            "Subst substitution is malformed: substitution image for x has stray indices",
        ),
        (
            ETA,
            node("Subst", [], eq(x, x), [refl_x], env={"x": f}),
            "Subst substitution is malformed: substitution for x has sort [0,1]->[0,1], expected [0,1]",
        ),
        (ETA, node("Subst", [], eq(z, z), [refl_x], env={"x": y}), "Subst conclusion must be the substituted premise"),
        (ETA, node("Nope", [], eq(x, x)), "unknown rule 'Nope'"),
        (ETA, node("Refl", [], eq(Const("zz", I), Const("zz", I))), "ill-typed equation: unknown constant zz"),
    ]


def test_every_side_condition_is_pinned():
    """Each entry's root fails with exactly its reason, and every reason the
    rule checks can return is pinned: the strings that the methods of
    _RuleChecks return and the table's reasons, apart from the typecheck's,
    match one to one (a formatted part of a string matches any text)."""
    table = _side_condition_table()
    wrong = [
        (reason, result)
        for key, d, reason in table
        if (result := check_derivation(d, THEORIES[key])) != CheckResult(False, (), reason)
    ]
    assert not wrong
    returns = [
        node.value
        for node in ast.walk(ast.parse(inspect.getsource(_RuleChecks)))
        if isinstance(node, ast.Return)
    ]
    reasons = [v for v in returns if isinstance(v, ast.JoinedStr) or isinstance(getattr(v, "value", None), str)]
    pinned = {reason for _, _, reason in table} - {"ill-typed equation: unknown constant zz"}
    matches = {
        ast.unparse(v): [reason for reason in pinned if re.fullmatch(_reason_pattern(v), reason)]
        for v in reasons
    }
    assert all(len(found) == 1 for found in matches.values()), matches
    assert sorted(found for (found,) in matches.values()) == sorted(pinned)
    assert len(pinned) + 1 == len(table) == len(reasons) + 1 == 62


def _reason_pattern(value) -> str:
    """The regular expression of the texts a returned string can take."""
    if isinstance(value, ast.Constant):
        return re.escape(value.value)
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant) else ".+" for part in value.values
    )


# ---------------------------------------------------------------------------
# Builders


def test_derive_cl_reduction_replays_traces():
    th = THEORIES["U_CL_untyped"]
    t = app(Const("S", STAR), Const("K", STAR), Const("K", STAR), Var("x", STAR))
    red = cl_reduce(t)
    d = derive_cl_reduction(red, th)
    assert check_derivation(d, th).ok
    concl = d.conclusion.conclusion
    assert concl.left == t and concl.right == red.result and concl.eps == 0


def test_derive_equal_reducts_joins_paths():
    th = THEORIES["U_CL_untyped"]
    t = App(Var("h", STAR), Var("x", STAR))
    lam = bracket_abstract(Var("x", STAR), t)
    u = Var("u", STAR)
    r1 = cl_reduce(App(lam, u))
    r2 = cl_reduce(substitute(t, {"x": u}))
    d = derive_equal_reducts(r1, r2, th)
    assert check_derivation(d, th).ok
    concl = d.conclusion.conclusion
    assert concl.left == App(lam, u)
    assert concl.right == substitute(t, {"x": u})


def test_subst_builder_instantiates_conclusion():
    from qlam.errors import SortError

    x = Var("x", O)
    d = d_subst(d_refl(x), {"x": Const("c", O)})
    assert d.conclusion.conclusion.left == Const("c", O)
    # an ill-sorted image is rejected when the substitution is applied
    with pytest.raises(SortError):
        d_subst(d_refl(x), {"x": Const("K", arrow(O, arrow(O, O)))})


def test_subst_env_values_that_are_not_terms_fail_with_a_reason():
    th = THEORIES["U_CL_untyped"]
    x, u = Var("x", STAR), Var("u", STAR)
    good = d_subst(d_refl(x), {"x": u})
    assert check_derivation(good, th).ok
    # a JSON tree is not decoded: env values are terms only
    for env in ({"x": term_to_json(u)}, {"x": "u"}, [("x", u)]):
        bad = Derivation("Subst", good.conclusion, good.premises, {"env": env})
        result = check_derivation(bad, th)
        assert (result.ok, result.path, result.reason) == (
            False, (), "Subst substitution must map names to terms"
        )


def test_cut_with_no_sides_weakens():
    x = Var("x", O)
    hyp = QuantEquation(Var("a", O), Var("b", O), F(1), O)
    refl = d_refl(x)
    weak = Derivation("Cut", Inference(frozenset({hyp}), refl.conclusion.conclusion), (refl,))
    assert check_derivation(weak, cl_theory()).ok
