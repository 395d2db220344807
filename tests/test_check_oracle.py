"""The derivation checker against the by-definition checker it replaced.

check_derivation compares each proof node with its rule's pattern: a Subst
node by matching its premise against its conclusion, the other rules field
by field, each shared node object once.  The oracle below is the checker
before that, kept as it was: it rebuilds each Subst conclusion by
substitution, builds the NExp hypotheses it expects as equations, tries
every ordered pair of Triang hypotheses and checks a node at every visit.
Both must give the same CheckResult (ok, path and reason) on every
derivation here, valid or not.  The one difference allowed is an NExp node
whose function parts have different sorts, where the oracle raises instead
of returning a reason.
"""

import itertools
import json
import random
from fractions import Fraction
from typing import Optional

import pytest

from qlam.corpus import corpus_derivations, corpus_theories
from qlam.errors import SortError, StructuralError
from qlam.quant_deduction import (
    CheckResult,
    Derivation,
    Inference,
    QuantEquation,
    Theory,
    _LAMBDA_RULES,
    _LEAF_RULES,
    _RuleChecks,
    _subst_eq,
    _unwind,
    builtin_theory,
    check_derivation,
    d_cut,
    d_refl,
    derivation_from_json,
    derivation_to_json,
    derive_cl_reduction,
    derive_equal_reducts,
)
from qlam.rewrite_engine import bracket_abstract, cl_reduce, open_bound, shift
from qlam.term_syntax import (
    App,
    ArrowSort,
    BaseSort,
    Bound,
    Const,
    Lam,
    STAR,
    Signature,
    Term,
    Var,
    _substituter,
    _typecheck,
    arrow,
    bind,
    bound_hints,
    free_vars,
    substitute,
)

from test_acceptance import _random_cl
from test_mutants import all_mutants, replace_at
from test_quant_deduction import THEORIES as TABLE_THEORIES, _side_condition_table

THEORIES = corpus_theories()
CORPUS = [
    (THEORIES[key], name, d) for key, lst in corpus_derivations().items() for name, d in lst
]
CL_THEORY = builtin_theory("U_CL", Signature(untyped=True))
O = BaseSort("o")


# ---------------------------------------------------------------------------
# The oracle


def _same_x(*eqs: QuantEquation) -> bool:
    xs = {eq.quantified for eq in eqs}
    return len(xs) == 1


def oracle_check_node(node: Derivation, th: Theory) -> Optional[str]:
    """The first side condition of its rule that node breaks, by
    rebuilding what the rule concludes."""
    rule = node.rule
    inf = node.conclusion
    eq = inf.conclusion
    hyps = inf.hypotheses

    if not th.is_lambda:
        if rule in _LAMBDA_RULES:
            return f"{rule} requires a lambda theory"
        if eq.quantified or any(h.quantified for h in hyps):
            return "quantified variables need a lambda theory"

    if rule in _LEAF_RULES:
        if node.premises:
            return f"{rule} is a leaf schema and takes no premises"

    if rule == "Assumpt":
        if eq not in hyps:
            return "Assumpt conclusion is not among the hypotheses"
        return None

    if rule == "Refl":
        if hyps:
            return "Refl takes no hypotheses"
        if eq.eps != 0:
            return "Refl requires epsilon 0"
        if eq.left != eq.right:
            return "Refl requires identical sides"
        return None

    if rule == "PRefl":
        if not th.partial:
            return "PRefl is only available in partial theories"
        if len(hyps) != 1:
            return "PRefl takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.eps != eq.eps or not _same_x(h, eq):
            return "PRefl conclusion must be t ~ t at the hypothesis epsilon"
        if eq.left != eq.right:
            return "PRefl requires identical sides"
        return None

    if rule == "Symm":
        if len(hyps) != 1:
            return "Symm takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.right or h.right != eq.left or h.eps != eq.eps or not _same_x(h, eq):
            return "Symm conclusion must flip the hypothesis"
        return None

    if rule == "Triang":
        for h1, h2 in itertools.product(hyps, repeat=2):
            if (
                h1.left == eq.left
                and h2.right == eq.right
                and h1.right == h2.left
                and h1.eps + h2.eps == eq.eps
                and _same_x(h1, h2, eq)
                and hyps == frozenset({h1, h2})
            ):
                return None
        return "Triang requires hypotheses t~s, s~u with epsilons summing exactly"

    if rule == "Max":
        if len(hyps) != 1:
            return "Max takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or not _same_x(h, eq):
            return "Max must keep the equation sides"
        if eq.eps < h.eps:
            return "Max can only increase epsilon"
        return None

    if rule == "NExp":
        if isinstance(eq.left, Lam) or isinstance(eq.right, Lam):
            return "NExp does not apply to binder symbols"
        if isinstance(eq.left, App) and isinstance(eq.right, App):
            expected = frozenset(
                {
                    QuantEquation(eq.left.fn, eq.right.fn, eq.eps, eq.left.fn.sort, eq.quantified),
                    QuantEquation(eq.left.arg, eq.right.arg, eq.eps, eq.left.arg.sort, eq.quantified),
                }
            )
            if hyps != expected:
                return "NExp hypotheses must equate the components at the same epsilon"
            return None
        if isinstance(eq.left, Const) and eq.left == eq.right:
            if hyps:
                return "NExp on a constant takes no hypotheses"
            return None
        return "NExp applies to applications and constants"

    if rule == "Alpha":
        if hyps:
            return "Alpha takes no hypotheses"
        if eq.eps != 0:
            return "Alpha requires epsilon 0"
        if not isinstance(eq.left, Lam):
            return "Alpha applies to abstractions"
        if eq.left != eq.right:
            return "Alpha requires alpha-equivalent sides"
        return None

    if rule == "Xi":
        if len(hyps) != 1:
            return "Xi takes exactly one hypothesis"
        (h,) = hyps
        if not (isinstance(eq.left, Lam) and isinstance(eq.right, Lam)):
            return "Xi concludes between abstractions"
        name = node.params.get("var")
        if name is None:
            return "Xi needs the abstracted variable in params"
        var = Var(name, eq.left.var_sort)
        if var not in eq.quantified:
            return "ξ requires x ∈ X"
        if h.eps != eq.eps or not _same_x(h, eq):
            return "Xi keeps epsilon and the quantified set"
        try:
            want = (bind(name, var.sort, h.left), bind(name, var.sort, h.right))
        except SortError:  # a namesake of var at another sort
            want = None
        if want != (eq.left, eq.right):
            return "Xi conclusion must abstract the hypothesis sides"
        return None

    if rule == "Beta":
        if hyps:
            return "Beta takes no hypotheses"
        if eq.eps != 0:
            return "Beta requires epsilon 0"
        if not (isinstance(eq.left, App) and isinstance(eq.left.fn, Lam)):
            return "Beta left side must be a redex"
        lam, u = eq.left.fn, eq.left.arg
        if set(free_vars(u)) & bound_hints(lam.body):
            return "β hygiene violated"
        if eq.right != open_bound(lam.body, u):
            return "Beta right side must be the contractum"
        return None

    if rule == "Eta":
        if not th.has_eta:
            return "Eta is only available in extensional theories"
        if hyps:
            return "Eta takes no hypotheses"
        if eq.eps != 0:
            return "Eta requires epsilon 0"
        r = eq.right
        if not (
            isinstance(r, Lam)
            and isinstance(r.body, App)
            and r.body.arg == Bound(0, r.var_sort)
            and r.body.fn == shift(eq.left, 1)
        ):
            return "Eta right side must be the expansion of the left"
        return None

    if rule == "Abstraction":
        if len(hyps) != 1:
            return "Abstraction takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or h.eps != eq.eps:
            return "Abstraction must keep the equation"
        if not h.quantified <= eq.quantified:
            return "Abstraction can only grow the quantified set"
        fv = set(free_vars(eq.left)) | set(free_vars(eq.right))
        if fv & eq.names():
            return "Abstraction requires the sides to avoid the quantified set"
        return None

    if rule == "Concretion":
        if len(hyps) != 1:
            return "Concretion takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or h.eps != eq.eps:
            return "Concretion must keep the equation"
        if not eq.quantified <= h.quantified:
            return "Concretion can only shrink the quantified set"
        return None

    if rule == "Axiom":
        if inf in th.axioms:
            return None
        # an interval closeness axiom; both sides live at eq.sort
        l, r = eq.left, eq.right
        values = th.interval_values
        if (
            not hyps
            and not eq.quantified
            and isinstance(l, Const)
            and isinstance(r, Const)
            and l.name in values
            and r.name in values
            and eq.eps >= abs(values[l.name] - values[r.name])
        ):
            return None
        return "Axiom node matches no theory axiom or schema"

    if rule == "Cut":
        if not node.premises:
            return "Cut needs at least the main premise"
        *sides, main = node.premises
        if main.conclusion.conclusion != eq:
            return "Cut conclusion must come from the main premise"
        if main.conclusion.hypotheses != frozenset(
            p.conclusion.conclusion for p in sides
        ):
            return "Cut side premises must prove the main premise's hypotheses"
        for p in sides:
            if p.conclusion.hypotheses != hyps:
                return "Cut side premises must share the conclusion's hypotheses"
        return None

    if rule == "Subst":
        if len(node.premises) != 1:
            return "Subst takes exactly one premise"
        (p,) = node.premises
        env = node.params.get("env")
        if env is None:
            return "Subst needs a substitution in params"
        if not isinstance(env, dict) or not all(isinstance(t, Term) for t in env.values()):
            return "Subst substitution must map names to terms"
        peq = p.conclusion.conclusion
        if th.is_lambda:
            if set(env) & peq.names():
                return "Subst must be the identity on the quantified set"
            bd = bound_hints(peq.left) | bound_hints(peq.right)
            for h in p.conclusion.hypotheses:
                bd |= bound_hints(h.left) | bound_hints(h.right)
            for image in env.values():
                if set(free_vars(image)) & bd:
                    return "Subst hygiene violated"
        try:
            sub = _substituter(env)
            want_eq = _subst_eq(peq, sub)
            want_hyps = frozenset(_subst_eq(h, sub) for h in p.conclusion.hypotheses)
        except (SortError, StructuralError) as exc:
            return f"Subst substitution is malformed: {exc}"
        if eq != want_eq or hyps != want_hyps:
            return "Subst conclusion must be the substituted premise"
        return None

    return f"unknown rule {rule!r}"


def oracle_check_derivation(d: Derivation, th: Theory) -> CheckResult:
    """Check every node against its rule schema at every visit, depth
    first; locate the first failure.  Each distinct equation is
    typechecked once per call."""
    checked: set[Term] = set()
    typed: set[QuantEquation] = set()
    # a node's path is kept as (last index, parent's path), () at the root,
    # so pushing a premise costs the same at any depth
    stack: list[tuple[Derivation, tuple]] = [(d, ())]
    while stack:  # depth first, premises in order
        node, path = stack.pop()
        inf = node.conclusion
        for eq in (*inf.hypotheses, inf.conclusion):
            if eq in typed:
                continue
            try:
                _typecheck(eq.left, th.signature, checked)
                _typecheck(eq.right, th.signature, checked)
            except Exception as exc:
                return CheckResult(False, _unwind(path), f"ill-typed equation: {exc}")
            typed.add(eq)
        reason = oracle_check_node(node, th)
        if reason is not None:
            return CheckResult(False, _unwind(path), reason)
        stack += reversed([(p, (i, path)) for i, p in enumerate(node.premises)])
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Derivations and their mutations


def json_copy(d: Derivation) -> Derivation:
    return derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))


def assert_same_result(d: Derivation, th: Theory) -> CheckResult:
    expected = oracle_check_derivation(d, th)
    assert check_derivation(d, th) == expected
    return expected


def criterion_06_derivations(seed: int, count: int, max_depth: int) -> list[Derivation]:
    """Bracket-simulation problems drawn as criterion 06 and the cl-proofs
    benchmark draw them, each with the derivation that its two reductions
    meet."""
    rng = random.Random(seed)
    x = Var("x", STAR)
    out = []
    for _ in range(count):
        t = _random_cl(rng, ["x", "y", "z"], rng.randint(1, max_depth))
        u = _random_cl(rng, ["y", "z"], rng.randint(0, 3))
        lhs = cl_reduce(App(bracket_abstract(x, t), u), fuel=20000)
        rhs = cl_reduce(substitute(t, {"x": u}), fuel=20000)
        out.append(derive_equal_reducts(lhs, rhs, CL_THEORY))
    return out


def node_paths(d: Derivation):
    """(path, node) for every visit of a node, depth first, premises in
    order."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack += reversed([(path + (i,), p) for i, p in enumerate(node.premises)])


def _with_image(node: Derivation, name: str, image: Term) -> Derivation:
    env = {**node.params["env"], name: image}
    return Derivation(node.rule, node.conclusion, node.premises, {"env": env})


def swapped_image(node, rng):
    """A Subst node with one image swapped for a sibling subterm: another
    variable's image or a part of its own."""
    env = node.params["env"]
    name = rng.choice(sorted(env))
    image = env[name]
    siblings = [t for t in env.values() if t != image]
    if isinstance(image, App):
        siblings += [image.fn, image.arg]
    return _with_image(node, name, rng.choice(siblings)) if siblings else None


def image_of_another_sort(node, rng):
    return _with_image(node, rng.choice(sorted(node.params["env"])), Var("q", O))


def image_with_stray_index(node, rng):
    name = rng.choice(sorted(node.params["env"]))
    return _with_image(node, name, App(node.params["env"][name], Bound(0, STAR)))


def dropped_or_extra_hypothesis(node, rng):
    inf = node.conclusion
    hyps = sorted(inf.hypotheses, key=repr)
    if hyps and rng.random() < 0.5:
        hyps.remove(rng.choice(hyps))
    else:
        q = Var("q", STAR)
        hyps.append(QuantEquation(q, q, Fraction(1), STAR))
    return Derivation(node.rule, Inference(frozenset(hyps), inf.conclusion), node.premises, node.params)


# each mutation and the rules of the nodes it is applied to
MUTATIONS = {
    swapped_image: {"Subst"},
    image_of_another_sort: {"Subst"},
    image_with_stray_index: {"Subst"},
    dropped_or_extra_hypothesis: {"NExp", "Triang", "Symm", "Cut"},
}


# ---------------------------------------------------------------------------
# Agreement


@pytest.mark.parametrize("th, name, d", CORPUS, ids=[name for _, name, _ in CORPUS])
def test_corpus_derivations_and_copies_match_oracle(th, name, d):
    assert assert_same_result(d, th).ok
    assert assert_same_result(json_copy(d), th).ok


def test_criterion_06_derivations_and_copies_match_oracle():
    """The first 300 of criterion 06's problems."""
    for d in criterion_06_derivations(271828, 300, 4):
        assert assert_same_result(d, CL_THEORY).ok
        assert assert_same_result(json_copy(d), CL_THEORY).ok


def test_side_condition_table_matches_oracle():
    for key, d, reason in _side_condition_table():
        assert assert_same_result(d, TABLE_THEORIES[key]) == CheckResult(False, (), reason)


def test_single_node_mutants_match_oracle():
    total = 0
    for th, dname, opname, mutant in all_mutants():
        assert not assert_same_result(mutant, th).ok, (dname, opname)
        total += 1
    assert total >= 100


def test_seeded_mutations_of_cl_derivations_match_oracle():
    """Four kinds of corruption at random nodes of bracket-simulation
    derivations, each checked alone, in the whole derivation, and in its
    JSON copy (an ancestor may reject the node first)."""
    rng = random.Random(7919)
    reasons = {mutation: set() for mutation in MUTATIONS}
    for d in criterion_06_derivations(1, 30, 5):
        visits = list(node_paths(d))
        for mutation, rules in MUTATIONS.items():
            eligible = [(path, node) for path, node in visits if node.rule in rules]
            for path, node in rng.sample(eligible, min(4, len(eligible))):
                new = mutation(node, rng)
                if new is None:
                    continue
                reasons[mutation].add(assert_same_result(new, CL_THEORY).reason)
                mutant = replace_at(d, path, new)
                result = assert_same_result(mutant, CL_THEORY)
                assert assert_same_result(json_copy(mutant), CL_THEORY) == result
                reasons[mutation].add(result.reason)
    assert reasons[swapped_image] == {"Subst conclusion must be the substituted premise"}
    assert reasons[image_of_another_sort] == {
        f"Subst substitution is malformed: substitution for {v} has sort o, expected *"
        for v in "xyz"
    }
    assert reasons[image_with_stray_index] == {
        f"Subst substitution is malformed: substitution image for {v} has stray indices"
        for v in "xyz"
    }
    assert reasons[dropped_or_extra_hypothesis] >= {
        "NExp hypotheses must equate the components at the same epsilon",
        "Triang requires hypotheses t~s, s~u with epsilons summing exactly",
        "Symm takes exactly one hypothesis",
        "Cut side premises must share the conclusion's hypotheses",
    }


def test_a_shared_node_is_checked_once_and_fails_at_its_first_visit(monkeypatch):
    i, x = Const("I", STAR), Var("x", STAR)
    red = cl_reduce(App(i, App(i, App(i, x))))  # three I steps share one Axiom leaf
    d = derive_cl_reduction(red, CL_THEORY)
    visits = list(node_paths(d))
    distinct = {id(node) for _, node in visits}
    assert len(distinct) < len(visits)
    checked = []
    check = _RuleChecks.check
    monkeypatch.setattr(_RuleChecks, "check", lambda self, node: checked.append(node) or check(self, node))
    assert check_derivation(d, CL_THEORY).ok
    assert len(checked) == len(distinct)
    # a bad node at two places fails at the first
    e = d_refl(x).conclusion.conclusion
    bad = Derivation("Refl", Inference(frozenset(), e), (d,))
    twice = d_cut([bad, bad], Derivation("Triang", Inference(frozenset({e}), e)))
    assert assert_same_result(twice, CL_THEORY) == CheckResult(
        False, (0,), "Refl is a leaf schema and takes no premises"
    )


def _edge_cases():
    """(theory, derivation, reason) for side conditions that the corpus,
    the mutants and the side-condition table leave unchecked: quantified
    sets that differ, an image of another sort that the conclusion holds,
    binder sorts under Subst, substituted hypotheses, a listed Axiom
    equation given hypotheses, and a side whose equal was checked inside a
    term of the other regime."""
    from qlam.corpus import I01

    I, II = I01, arrow(I01, I01)
    x, y, z, v, w = (Var(n, I) for n in "xyzvw")
    f = Var("f", II)

    def eq(left, right, eps=0, X=()):
        return QuantEquation(left, right, Fraction(eps), left.sort, frozenset(X))

    def node(rule, hyps, concl, premises=(), **params):
        return Derivation(rule, Inference(frozenset(hyps), concl), tuple(premises), params)

    lam = THEORIES["U_lambda_eta_interval"]
    partial_lam = builtin_theory("U_lambda_interval", lam.signature, partial=True)
    untyped = THEORIES["U_CL_untyped"]
    listed = untyped.axioms[0].conclusion
    xy_w = eq(x, y, 1, {w})
    hyp = node("Assumpt", [eq(x, y, 1)], eq(x, y, 1))
    star_x = Var("x", STAR)
    c = Const("c", ArrowSort(STAR, O))
    mixed = builtin_theory("U_CL", Signature(constants={"c": c.sort}))
    return [
        (lam, node("Symm", [xy_w], eq(y, x, 1)), "Symm conclusion must flip the hypothesis"),
        (
            partial_lam,
            node("PRefl", [xy_w], eq(x, x, 1)),
            "PRefl conclusion must be t ~ t at the hypothesis epsilon",
        ),
        (lam, node("Max", [xy_w], eq(x, y, 2)), "Max must keep the equation sides"),
        (
            lam,
            node("Xi", [eq(v, y, 1, {v})], eq(Lam("v", I, Bound(0, I)), Lam("v", I, y), 1, {v, w}), var="v"),
            "Xi keeps epsilon and the quantified set",
        ),
        (
            lam,
            node("Triang", [xy_w, eq(y, z, 1, {w})], eq(x, z, 2)),
            "Triang requires hypotheses t~s, s~u with epsilons summing exactly",
        ),
        (
            lam,
            node("NExp", [eq(f, f, 1, {w}), xy_w], eq(App(f, x), App(f, y), 1)),
            "NExp hypotheses must equate the components at the same epsilon",
        ),
        (
            lam,
            node("Subst", [], eq(y, y), [d_refl(x, frozenset({w}))], env={"x": y}),
            "Subst conclusion must be the substituted premise",
        ),
        (
            lam,
            node("Subst", [], eq(f, f), [d_refl(x)], env={"x": f}),
            "Subst substitution is malformed: substitution for x has sort [0,1]->[0,1], expected [0,1]",
        ),
        (
            lam,
            node("Subst", [], eq(Lam("v", II, y), Lam("v", II, y)), [d_refl(Lam("v", I, x))], env={"x": y}),
            "Subst conclusion must be the substituted premise",
        ),
        (
            lam,
            node("Subst", [eq(x, y, 1)], eq(z, y, 1), [hyp], env={"x": z}),
            "Subst conclusion must be the substituted premise",
        ),
        (lam, node("Subst", [eq(z, y, 1)], eq(z, y, 1), [hyp], env={"x": z}), None),
        (
            untyped,
            node("Cut", [], listed, [node("Axiom", [], listed), node("Axiom", [listed], listed)]),
            "Axiom node matches no theory axiom or schema",
        ),
        (
            untyped,
            node("Refl", [eq(star_x, star_x, 0, {star_x})], eq(star_x, star_x)),
            "quantified variables need a lambda theory",
        ),
        (
            mixed,
            node("Refl", [eq(App(c, star_x), App(c, star_x))], eq(star_x, star_x)),
            "ill-typed equation: untyped term used under a typed signature",
        ),
    ]


@pytest.mark.parametrize("th, d, reason", _edge_cases())
def test_edge_cases_match_oracle(th, d, reason):
    result = assert_same_result(d, th)
    assert (result.ok, result.reason) == (reason is None, reason)


def test_ill_sorted_nexp_fails_where_the_oracle_raises():
    """f a ~1 g b from a ~1 a, with f : o->o and g : p->o: the function
    parts have different sorts, so no hypothesis can equate them."""
    p = BaseSort("p")
    f, g = Const("f", arrow(O, O)), Const("g", arrow(p, O))
    a, b = Const("a", O), Const("b", p)
    th = builtin_theory("U_CL", Signature(constants={"f": f.sort, "g": g.sort, "a": O, "b": p}))
    hyp = QuantEquation(a, a, Fraction(1), O)
    d = Derivation("NExp", Inference(frozenset({hyp}), QuantEquation(App(f, a), App(g, b), Fraction(1), O)))
    assert check_derivation(d, th) == CheckResult(
        False, (), "NExp hypotheses must equate the components at the same epsilon"
    )
    with pytest.raises(StructuralError, match="equation sides do not live at the stated sort"):
        oracle_check_derivation(d, th)
