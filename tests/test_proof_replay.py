"""Proof replay against by-definition oracles.

The derivation JSON codec writes each distinct term node and each
distinct equation record once into a table, and the proof nodes in
postorder into a third, and decodes each table in one forward pass (one
decoded object per distinct subtree or record); check_derivation
typechecks each distinct term once.  The oracles below do none of that:
they are plain recursions over nested JSON trees that rebuild and
re-check everything, with separate plain converters between the nested
tree and the table document, and every fast path must agree with them
exactly.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlam.corpus import corpus_derivations, corpus_theories
from qlam.errors import PreconditionError, SortError, StructuralError
from qlam.quant_deduction import (
    CheckResult,
    Derivation,
    Inference,
    QuantEquation,
    _axiom_for_step,
    _cl_axiom_index,
    _d_app,
    _d_triang,
    builtin_theory,
    check_derivation,
    d_axiom,
    d_cut,
    d_refl,
    d_subst,
    derivation_from_json,
    derivation_to_json,
    derive_cl_reduction,
    derive_equal_reducts,
)
from qlam.rewrite_engine import CLReduction, CLStep, bracket_abstract, cl_reduce
from qlam.term_syntax import (
    App,
    ArrowSort,
    Bottom,
    Bound,
    Const,
    Lam,
    STAR,
    Signature,
    StarSort,
    Var,
    _spine,
    app,
    arrow,
    combinator_schema_matches,
    combinator_sort,
    parse_sort,
    print_term,
    render_sort,
    substitute,
    term_from_json,
    term_to_json,
)

from test_check_oracle import oracle_check_node
from test_mutants import _node, _resides, all_mutants, paths, replace_at
from test_term_syntax import oracle_print_term

THEORIES = corpus_theories()
CORPUS = [
    (THEORIES[theory_name], name, d)
    for theory_name, lst in corpus_derivations().items()
    for name, d in lst
]
CL_SIG = Signature(untyped=True)
CL_THEORY = builtin_theory("U_CL", CL_SIG)


# ---------------------------------------------------------------------------
# Oracles: no table, no memo, no sharing


def oracle_term_to_json(t):
    if isinstance(t, Var):
        return {"node": "var", "name": t.name, "sort": render_sort(t.sort)}
    if isinstance(t, Bound):
        return {"node": "bvar", "index": t.index, "sort": render_sort(t.sort)}
    if isinstance(t, Const):
        return {"node": "const", "name": t.name, "sort": render_sort(t.sort)}
    if isinstance(t, Bottom):
        return {"node": "bottom", "sort": render_sort(t.sort)}
    if isinstance(t, App):
        return {"node": "app", "fn": oracle_term_to_json(t.fn), "arg": oracle_term_to_json(t.arg)}
    return {
        "node": "lam",
        "hint": t.hint,
        "var_sort": render_sort(t.var_sort),
        "body": oracle_term_to_json(t.body),
    }


def oracle_equation_to_json(eq):
    return {
        "left": oracle_term_to_json(eq.left),
        "right": oracle_term_to_json(eq.right),
        "eps": str(eq.eps),
        "sort": render_sort(eq.sort),
        "X": sorted(
            ({"name": v.name, "sort": render_sort(v.sort)} for v in eq.quantified),
            key=lambda d: (d["name"], d["sort"]),
        ),
    }


def oracle_to_json(d):
    hyps = sorted(
        d.conclusion.hypotheses,
        key=lambda e: (str(e.eps), oracle_print_term(e.left), oracle_print_term(e.right)),
    )
    params = dict(d.params)
    if "env" in params:
        params["env"] = {name: oracle_term_to_json(t) for name, t in params["env"].items()}
    return {
        "rule": d.rule,
        "params": params,
        "conclusion": {
            "hyps": [oracle_equation_to_json(h) for h in hyps],
            "eq": oracle_equation_to_json(d.conclusion.conclusion),
        },
        "premises": [oracle_to_json(p) for p in d.premises],
    }


def oracle_term_from_json(data):
    node = data["node"]
    if node == "var":
        return Var(data["name"], parse_sort(data["sort"]))
    if node == "bvar":
        return Bound(data["index"], parse_sort(data["sort"]))
    if node == "const":
        return Const(data["name"], parse_sort(data["sort"]))
    if node == "bottom":
        return Bottom(parse_sort(data["sort"]))
    if node == "app":
        return App(oracle_term_from_json(data["fn"]), oracle_term_from_json(data["arg"]))
    return Lam(data["hint"], parse_sort(data["var_sort"]), oracle_term_from_json(data["body"]))


def oracle_equation_from_json(data):
    return QuantEquation(
        oracle_term_from_json(data["left"]),
        oracle_term_from_json(data["right"]),
        Fraction(data["eps"]),
        parse_sort(data["sort"]),
        frozenset(Var(v["name"], parse_sort(v["sort"])) for v in data["X"]),
    )


def oracle_from_json(data):
    params = dict(data["params"])
    if "env" in params:
        params["env"] = {name: oracle_term_from_json(t) for name, t in params["env"].items()}
    inf = Inference(
        frozenset(oracle_equation_from_json(h) for h in data["conclusion"]["hyps"]),
        oracle_equation_from_json(data["conclusion"]["eq"]),
    )
    return Derivation(
        data["rule"], inf, tuple(oracle_from_json(p) for p in data["premises"]), params
    )


TERM_CHILDREN = ("fn", "arg", "body")


def hash_consing():
    """A term table and a function that enters a nested oracle term dict
    into it: every term dict is hash-consed by its JSON text, in
    postorder, in the order of the calls."""
    terms, index = [], {}

    def term(t):
        key = json.dumps(t)
        if key not in index:
            record = {k: term(v) if k in TERM_CHILDREN else v for k, v in t.items()}
            index[key] = len(terms)
            terms.append(record)
        return index[key]

    return terms, term


def tree_to_table(tree):
    """The derivation document of a nested oracle tree: its nodes in
    postorder, and its equation records and terms hash-consed in the order
    the nodes mention them (env values, hypotheses, conclusion)."""
    terms, term = hash_consing()
    equations, index, proof = [], {}, []

    def equation(eq):
        record = {**eq, "left": term(eq["left"]), "right": term(eq["right"])}
        key = json.dumps(record)
        if key not in index:
            index[key] = len(equations)
            equations.append(record)
        return index[key]

    def node(tree):
        premises = [node(p) for p in tree["premises"]]
        params = dict(tree["params"])
        if "env" in params:
            params["env"] = {name: term(t) for name, t in params["env"].items()}
        hyps = [equation(h) for h in tree["conclusion"]["hyps"]]
        eq = equation(tree["conclusion"]["eq"])
        proof.append(
            {"rule": tree["rule"], "params": params, "hyps": hyps, "eq": eq, "premises": premises}
        )
        return len(proof) - 1

    node(tree)
    return {"terms": terms, "equations": equations, "proof": proof}


def term_tree_to_table(tree):
    """The term document of a nested oracle term tree."""
    terms, term = hash_consing()
    root = term(tree)
    return {"terms": terms, "root": root}


def table_to_tree(doc):
    """The nested oracle tree of a derivation document."""
    terms, records, nodes = doc["terms"], doc["equations"], []

    def term(i):
        return {k: term(v) if k in TERM_CHILDREN else v for k, v in terms[i].items()}

    def equation(i):
        return {**records[i], "left": term(records[i]["left"]), "right": term(records[i]["right"])}

    for entry in doc["proof"]:
        params = dict(entry["params"])
        if "env" in params:
            params["env"] = {name: term(i) for name, i in params["env"].items()}
        nodes.append(
            {
                "rule": entry["rule"],
                "params": params,
                "conclusion": {
                    "hyps": [equation(i) for i in entry["hyps"]],
                    "eq": equation(entry["eq"]),
                },
                "premises": [nodes[i] for i in entry["premises"]],
            }
        )
    return nodes[-1]


def oracle_typecheck(t, sig):
    """The sort of t by the typing rules, recomputed at every node."""

    def go(t):
        if isinstance(t, (Var, Bound, Bottom)):
            return t.sort
        if isinstance(t, Const):
            declared = sig.constants.get(t.name)
            if declared is not None:
                if declared != t.sort:
                    raise SortError(
                        f"constant {t.name} declared at "
                        f"{render_sort(declared)}, used at {render_sort(t.sort)}"
                    )
            elif not (sig.combinators and combinator_schema_matches(t.name, t.sort)):
                raise SortError(f"unknown constant {t.name}")
            return t.sort
        if isinstance(t, App):
            fsort, asort = go(t.fn), go(t.arg)
            if isinstance(fsort, StarSort):
                return STAR
            if not isinstance(fsort, ArrowSort):
                raise SortError(f"application of non-arrow {render_sort(fsort)}")
            if fsort.dom != asort:
                raise SortError("argument sort mismatch")
            return fsort.cod
        return arrow(t.var_sort, go(t.body))

    result = go(t)
    if sig.untyped and result is not STAR:
        raise SortError("typed term used under an untyped signature")
    if not sig.untyped and result is STAR:
        raise SortError("untyped term used under a typed signature")
    return result


def oracle_check(d, th):
    """Typecheck every equation side afresh at every node, then the node's
    rule, depth first; the first failure wins."""

    def walk(node, path):
        for eq in list(node.conclusion.hypotheses) + [node.conclusion.conclusion]:
            try:
                oracle_typecheck(eq.left, th.signature)
                oracle_typecheck(eq.right, th.signature)
            except Exception as exc:
                return CheckResult(False, path, f"ill-typed equation: {exc}")
        reason = oracle_check_node(node, th)
        if reason is not None:
            return CheckResult(False, path, reason)
        for i, child in enumerate(node.premises):
            bad = walk(child, path + (i,))
            if bad is not None:
                return bad
        return None

    return walk(d, ()) or CheckResult(True)


def oracle_axiom_for_step(rule, redex, th):
    """The step's axiom instance by substitution: the first axiom of th
    whose left side is the redex's head applied to distinct variables,
    with the redex's arguments substituted into the whole axiom."""
    head, args = _spine(redex)
    for ax in th.axioms:
        ax_head, ax_args = _spine(ax.conclusion.left)
        if ax_head != head or len(ax_args) != len(args):
            continue
        env = {v.name: arg for v, arg in zip(ax_args, args) if isinstance(v, Var)}
        if len(env) != len(ax_args):
            continue
        return d_subst(d_axiom(ax), env)
    raise PreconditionError(f"theory has no {rule} axiom at the needed sorts")


def oracle_derive_cl_reduction(red, th):
    """One proof per step: its axiom instance wrapped in one NExp (with
    Refl on the other side) per level of its path, the steps joined by
    Triang."""
    current = red.start
    proof = None
    for step in red.steps:
        step_proof = oracle_axiom_for_step(step.rule, step.redex, th)
        node = current
        wrappers = []
        for direction in step.path:
            wrappers.append((direction, node))
            node = node.fn if direction == "fn" else node.arg
        for direction, parent in reversed(wrappers):
            if direction == "fn":
                step_proof = _d_app(step_proof, d_refl(parent.arg))
            else:
                step_proof = _d_app(d_refl(parent.fn), step_proof)
        proof = step_proof if proof is None else _d_triang(proof, step_proof)
        current = step_proof.conclusion.conclusion.right
    return d_refl(red.start) if proof is None else proof


# ---------------------------------------------------------------------------
# Helpers


def nodes(d):
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.premises)


def roots(d):
    """Every term a derivation mentions directly."""
    for node in nodes(d):
        inf = node.conclusion
        for eq in [*inf.hypotheses, inf.conclusion]:
            yield eq.left
            yield eq.right
            yield from eq.quantified
        yield from node.params.get("env", {}).values()


def hints(t):
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Lam):
            out.append(s.hint)
            stack.append(s.body)
        elif isinstance(s, App):
            stack += [s.arg, s.fn]
    return tuple(out)


def assert_equal_subterms_shared(d):
    """Any two equal subterms with equal binder hints are one object."""
    seen, owner = set(), {}
    stack = list(roots(d))
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        first = owner.setdefault((t, hints(t)), t)
        assert first is t, t
        if isinstance(t, App):
            stack += [t.fn, t.arg]
        elif isinstance(t, Lam):
            stack.append(t.body)


def assert_replay_matches_oracles(d, th):
    data = derivation_to_json(d)
    text = json.dumps(data)
    assert text == json.dumps(tree_to_table(oracle_to_json(d)))
    copy = derivation_from_json(json.loads(text))
    assert copy == d
    assert copy == oracle_from_json(table_to_tree(json.loads(text)))
    assert json.dumps(derivation_to_json(copy)) == text  # hints survive
    assert_equal_subterms_shared(copy)
    expected = oracle_check(d, th)
    assert check_derivation(d, th) == expected
    assert check_derivation(copy, th) == expected


def assert_axiom_steps_match_oracle(red, th):
    """Each step's Subst node, built from the step, has the conclusion,
    the env (in order) and the Axiom premise that substituting into the
    axiom gives."""
    axioms = _cl_axiom_index(th.axioms)
    for step in red.steps:
        node = _axiom_for_step(step, axioms)
        expected = oracle_axiom_for_step(step.rule, step.redex, th)
        assert node.rule == expected.rule == "Subst"
        assert node.conclusion == expected.conclusion
        assert list(node.params["env"].items()) == list(expected.params["env"].items())
        assert node.premises == expected.premises


def assert_builder_matches_oracle(red, th):
    """The run-by-run derivation and the step-by-step oracle both check,
    conclude the same inference, and the first has no more nodes; each
    step's axiom instance matches the substitution oracle."""
    assert_axiom_steps_match_oracle(red, th)
    d, expected = derive_cl_reduction(red, th), oracle_derive_cl_reduction(red, th)
    assert check_derivation(d, th).ok and check_derivation(expected, th).ok
    assert d.conclusion == expected.conclusion
    assert sum(1 for _ in nodes(d)) <= sum(1 for _ in nodes(expected))


def rule_counts(d):
    return dict(Counter(node.rule for node in nodes(d)))


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("th,name,d", CORPUS, ids=[name for _, name, _ in CORPUS])
def test_corpus_replay_matches_oracles(th, name, d):
    assert_replay_matches_oracles(d, th)


def test_corpus_reductions_match_builder_oracle():
    """Every conclusion side of a corpus derivation that cl_reduce takes
    and reduces in at least one step: the run-by-run derivation of that
    reduction agrees with the step-by-step oracle, and so does each
    step's axiom instance."""
    reductions = steps = 0
    for th, name, d in CORPUS:
        eq = d.conclusion.conclusion
        for side in (eq.left, eq.right):
            try:
                red = cl_reduce(side, fuel=1000)
            except PreconditionError:
                continue  # a lambda term
            if red.steps:
                assert_builder_matches_oracle(red, th)
                reductions += 1
                steps += len(red.steps)
    assert (reductions, steps) == (9, 21)


def test_checker_matches_oracle_on_every_mutant():
    total = 0
    for th, dname, opname, mutant in all_mutants():
        expected = oracle_check(mutant, th)
        assert not expected.ok, (dname, opname)
        assert check_derivation(mutant, th) == expected, (dname, opname)
        copy = derivation_from_json(json.loads(json.dumps(derivation_to_json(mutant))))
        assert check_derivation(copy, th) == expected, (dname, opname)
        total += 1
    assert total >= 100


def poison(t):
    """t with its last constant in print order renamed to an undeclared
    one, sharing every node off the path to it; None without constants."""
    if isinstance(t, Const):
        return Const("undeclared", t.sort)
    if isinstance(t, App):
        arg = poison(t.arg)
        if arg is not None:
            return App(t.fn, arg)
        fn = poison(t.fn)
        return None if fn is None else App(fn, t.arg)
    if isinstance(t, Lam):
        body = poison(t.body)
        return None if body is None else Lam(t.hint, t.var_sort, body)
    return None


def ill_typed_variants(d):
    """d with one equation side of one node poisoned, every way."""
    for path, node in paths(d):
        inf = node.conclusion
        for eq in [*inf.hypotheses, inf.conclusion]:
            for side in ("left", "right"):
                bad = poison(getattr(eq, side))
                if bad is None:
                    continue
                new = _resides(eq, bad, eq.right) if side == "left" else _resides(eq, eq.left, bad)
                if eq is inf.conclusion:
                    new_inf = Inference(inf.hypotheses, new)
                else:
                    new_inf = Inference(inf.hypotheses - {eq} | {new}, inf.conclusion)
                yield replace_at(d, path, _node(node, new_inf))


def test_checker_matches_oracle_on_ill_typed_sides():
    """A side that differs from checked terms in one constant is still
    rejected where the oracle rejects it, with the oracle's reason.  (An
    ancestor may reject the changed node's conclusion first.)"""
    ill_typed = 0
    for th, name, d in CORPUS:
        for variant in ill_typed_variants(d):
            expected = oracle_check(variant, th)
            assert not expected.ok, name
            assert check_derivation(variant, th) == expected, name
            ill_typed += expected.reason.startswith("ill-typed")
    assert ill_typed >= 75, ill_typed


def test_binder_hints_survive_shared_decoding():
    """Alpha-equivalent abstractions with different hints stay distinct
    objects through the codec, so printing keeps each binder's name."""
    o = parse_sort("o")
    lam_x, lam_y = Lam("x", o, Bound(0, o)), Lam("y", o, Bound(0, o))
    assert lam_x == lam_y
    eq = QuantEquation(lam_x, lam_y, Fraction(0), lam_x.sort)
    d = Derivation("Alpha", Inference(frozenset(), eq))
    text = json.dumps(derivation_to_json(d))
    assert text == json.dumps(tree_to_table(oracle_to_json(d)))
    copy = derivation_from_json(json.loads(text))
    left, right = copy.conclusion.conclusion.left, copy.conclusion.conclusion.right
    assert (print_term(left), print_term(right)) == ("\\x:o. x", "\\y:o. y")
    assert left.body is right.body
    assert json.dumps(derivation_to_json(copy)) == text
    pair = App(App(Const("p", arrow(lam_x.sort, arrow(lam_x.sort, o))), lam_x), lam_y)
    text = json.dumps(term_to_json(pair))
    assert text == json.dumps(term_tree_to_table(oracle_term_to_json(pair)))
    copy = term_from_json(json.loads(text))
    assert print_term(copy) == print_term(pair) == "p (\\x:o. x) (\\y:o. y)"
    assert copy.fn.arg.body is copy.arg.body
    assert json.dumps(term_to_json(copy)) == text


def unhinted(t):
    """t with every binder hint replaced by one name."""
    if isinstance(t, App):
        return App(unhinted(t.fn), unhinted(t.arg))
    if isinstance(t, Lam):
        return Lam("v", t.var_sort, unhinted(t.body))
    return t


def test_hypotheses_with_binder_sides_order_by_printed_text():
    """A Triang node whose hypotheses have abstractions on every side is
    ordered by the printed text, which names each binder by its hint; the
    hint-free text orders the two hypotheses the other way round."""
    th = THEORIES["U_lambda_interval"]
    i = parse_sort("[0,1]")
    m = Const("m", arrow(i, i))
    ident = Lam("a", i, Bound(0, i))
    once = Lam("b", i, App(m, Bound(0, i)))
    twice = Lam("c", i, App(m, App(m, Bound(0, i))))
    h1 = QuantEquation(ident, once, Fraction(0), ident.sort)
    h2 = QuantEquation(once, twice, Fraction(0), ident.sort)
    out = QuantEquation(ident, twice, Fraction(0), ident.sort)
    d = Derivation("Triang", Inference(frozenset({h1, h2}), out))
    assert check_derivation(d, th).ok
    assert_replay_matches_oracles(d, th)
    doc = json.loads(json.dumps(derivation_to_json(d)))
    lefts = [
        print_term(term_from_json({"terms": doc["terms"], "root": doc["equations"][i]["left"]}))
        for i in doc["proof"][-1]["hyps"]
    ]
    assert lefts == ["\\a:[0,1]. a", "\\b:[0,1]. m b"]
    assert print_term(unhinted(once)) < print_term(unhinted(ident))


def test_alpha_equivalent_equations_keep_their_own_hints():
    """Two alpha-equivalent equations with different hints, one proved by
    Alpha and one assumed by the main premise of a Cut, keep their own
    records and come back with their own hints."""
    th = THEORIES["U_lambda_interval"]
    i = parse_sort("[0,1]")
    lam_x, lam_y = Lam("x", i, Bound(0, i)), Lam("y", i, Bound(0, i))
    ex = QuantEquation(lam_x, lam_x, Fraction(0), lam_x.sort)
    ey = QuantEquation(lam_y, lam_y, Fraction(0), lam_y.sort)
    assert ex == ey
    alpha = Derivation("Alpha", Inference(frozenset(), ex))
    d = d_cut([alpha], Derivation("Assumpt", Inference(frozenset({ey}), ey)))
    assert check_derivation(d, th).ok
    assert_replay_matches_oracles(d, th)
    data = json.loads(json.dumps(derivation_to_json(d)))
    root = data["proof"][-1]
    assert root["eq"] != data["proof"][root["premises"][0]]["eq"]
    copy = derivation_from_json(data)
    alpha, assumpt = copy.premises
    assert print_term(alpha.conclusion.conclusion.left) == "\\x:[0,1]. x"
    assert [print_term(h.left) for h in assumpt.conclusion.hypotheses] == ["\\y:[0,1]. y"]
    assert print_term(copy.conclusion.conclusion.right) == "\\y:[0,1]. y"


def test_quantified_variables_are_written_sorted():
    """An equation's X entries are written sorted by name, then sort,
    whatever order its set iterates in."""
    th = THEORIES["U_lambda_interval"]
    i = parse_sort("[0,1]")
    d = d_refl(Var("z", i), frozenset(Var(name, i) for name in "qwertyuiop"))
    assert check_derivation(d, th).ok
    assert_replay_matches_oracles(d, th)
    (record,) = derivation_to_json(d)["equations"]
    assert [v["name"] for v in record["X"]] == sorted("qwertyuiop")


def test_term_documents_match_oracle():
    """Every term the corpus derivations mention is written as the
    hash-consed oracle tree and decodes to an equal term, hints
    included."""
    seen = 0
    for th, name, d in CORPUS:
        for t in roots(d):
            text = json.dumps(term_to_json(t))
            assert text == json.dumps(term_tree_to_table(oracle_term_to_json(t))), name
            copy = term_from_json(json.loads(text))
            assert copy == t and json.dumps(term_to_json(copy)) == text, name
            seen += 1
    assert seen == 471, seen


def cl_tree(names, depth):
    leaf = st.sampled_from(names + ["I", "K", "S"])
    if depth == 0:
        return leaf
    return st.one_of(leaf, st.tuples(cl_tree(names, depth - 1), cl_tree(names, depth - 1)))


def cl_term(tree):
    if isinstance(tree, tuple):
        return App(cl_term(tree[0]), cl_term(tree[1]))
    return Const(tree, STAR) if tree in ("I", "K", "S") else Var(tree, STAR)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cl_tree(["x", "y", "z"], 4), cl_tree(["y", "z"], 3))
def test_bracket_simulation_replay_matches_oracles(t_tree, u_tree):
    """Criterion-06 problems: derive that (\\x. t) u and t[x:=u] meet,
    then replay the derivation through the codec and the checker."""
    t, u = cl_term(t_tree), cl_term(u_tree)
    lhs = cl_reduce(App(bracket_abstract(Var("x", STAR), t), u), fuel=2000)
    rhs = cl_reduce(substitute(t, {"x": u}), fuel=2000)
    assume(not lhs.out_of_fuel and not rhs.out_of_fuel)
    assert_builder_matches_oracle(lhs, CL_THEORY)
    assert_builder_matches_oracle(rhs, CL_THEORY)
    assert_replay_matches_oracles(derive_equal_reducts(lhs, rhs, CL_THEORY), CL_THEORY)


def test_deep_terms_round_trip_without_recursion():
    """A 10,000-argument spine applied to 10,000 nested binders goes
    through derivation and term documents, json.dumps and json.loads.
    Copies equal the original, and re-encode to the same text."""
    x = Var("x", STAR)
    nest = x
    for _ in range(10_000):
        nest = Lam("y", STAR, nest)
    t = App(nest, app(x, *[x] * 10_000))
    text = json.dumps(derivation_to_json(d_refl(t)))
    data = json.loads(text)
    assert len(data["terms"]) == 1 + 10_000 + 10_000 + 1
    copy = derivation_from_json(data)
    assert json.dumps(derivation_to_json(copy)) == text
    term_copy = term_from_json(json.loads(json.dumps(term_to_json(t))))
    assert term_copy == t and copy.conclusion.conclusion.left == t
    assert json.dumps(derivation_to_json(d_refl(term_copy))) == text


def test_deep_proofs_round_trip_and_check():
    """Proof depth needs no recursion in the codec or the checker: the
    derivation of a 600-step reduction of I (I (... (I x))), which is one
    Cut deeper per step, and a Cut chain 20,000 deep go through the
    document, JSON text and the checker at the default recursion limit.
    A copy has the original's conclusion and re-encodes to the same text."""
    x = Var("x", STAR)
    t = x
    for _ in range(600):
        t = App(Const("I", STAR), t)
    chain = d_refl(x)
    for _ in range(20_000):
        chain = d_cut([], chain)
    for d in (derive_cl_reduction(cl_reduce(t, fuel=1000), CL_THEORY), chain):
        text = json.dumps(derivation_to_json(d))
        copy = derivation_from_json(json.loads(text))
        assert check_derivation(copy, CL_THEORY).ok
        assert copy.conclusion == d.conclusion
        assert json.dumps(derivation_to_json(copy)) == text


@pytest.mark.parametrize("direction", ["fn", "arg"])
def test_deep_step_paths_derive_check_and_round_trip(direction):
    """One I x step 5,000 levels down the function or the argument side,
    built by hand (cl_reduce's redex search recurses at that depth): the
    derivation builder, the checker and the codec need no recursion."""
    x, y = Var("x", STAR), Var("y", STAR)
    redex = App(Const("I", STAR), x)
    start, result = redex, x
    for _ in range(5_000):
        if direction == "fn":
            start, result = App(start, y), App(result, y)
        else:
            start, result = App(y, start), App(y, result)
    step = CLStep((direction,) * 5_000, "I", redex, x)
    d = derive_cl_reduction(CLReduction(start, result, (step,), False), CL_THEORY)
    assert check_derivation(d, CL_THEORY).ok
    assert d.conclusion.conclusion.left == start and d.conclusion.conclusion.right == result
    copy = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
    assert copy.conclusion == d.conclusion
    assert check_derivation(copy, CL_THEORY).ok


def test_cl_derivation_shapes_are_pinned():
    """One NExp per maximal run of steps below the root, Refl only for a
    side without steps: S K K x takes two root steps; f (I x) one step
    under the argument; I (I f) (g (I x)) two steps in the function part
    and then one in the argument part, which is a run one level down."""
    x, f, g = Var("x", STAR), Var("f", STAR), Var("g", STAR)
    s, k, i = Const("S", STAR), Const("K", STAR), Const("I", STAR)
    skk = derive_cl_reduction(cl_reduce(app(s, k, k, x)), CL_THEORY)
    assert rule_counts(skk) == {"Cut": 1, "Triang": 1, "Subst": 2, "Axiom": 2}
    ((_, _, nexp_under_arg),) = [c for c in CORPUS if c[1] == "nexp_under_arg"]
    assert rule_counts(nexp_under_arg) == {"Cut": 1, "NExp": 1, "Refl": 1, "Subst": 1, "Axiom": 1}
    red = cl_reduce(app(i, App(i, f), App(g, App(i, x))))
    assert [step.path for step in red.steps] == [("fn",), ("fn",), ("arg", "arg")]
    runs = derive_cl_reduction(red, CL_THEORY)
    assert rule_counts(runs) == {
        "Cut": 3, "NExp": 2, "Refl": 1, "Triang": 1, "Subst": 3, "Axiom": 3,
    }
    assert rule_counts(oracle_derive_cl_reduction(red, CL_THEORY)) == {
        "Cut": 6, "NExp": 4, "Refl": 4, "Triang": 2, "Subst": 3, "Axiom": 3,
    }
    # a function step after an argument step, which cl_reduce never
    # emits, starts a second run
    f_redex, x_redex = App(i, f), App(i, x)
    steps = (CLStep(("arg",), "I", x_redex, x), CLStep(("fn",), "I", f_redex, f))
    red = CLReduction(App(f_redex, x_redex), App(f, x), steps, False)
    assert_builder_matches_oracle(red, CL_THEORY)
    assert rule_counts(derive_cl_reduction(red, CL_THEORY))["NExp"] == 2


def test_missing_cl_axiom_is_a_precondition_error():
    """A step whose axiom the theory lacks raises PreconditionError, as
    the substitution oracle does: an untyped theory without K, one whose
    K axiom repeats its variable (K x x ~0 x), and a typed theory without
    the needed instance.  An I axiom at a positive distance is no CL
    axiom, so the builder raises where the oracle would substitute into
    it."""
    x, k, s = Var("x", STAR), Const("K", STAR), Const("S", STAR)
    others = tuple(ax for ax in CL_THEORY.axioms if _spine(ax.conclusion.left)[0] != k)
    no_k = replace(CL_THEORY, axioms=others)
    kxx = Inference(frozenset(), QuantEquation(app(k, x, x), x, Fraction(0), STAR))
    repeated_k = replace(CL_THEORY, axioms=(kxx,) + others)
    o = parse_sort("o")
    typed = builtin_theory("U_CL", Signature(combinator_sorts=((o, o, o),)))
    oo = arrow(o, o)
    typed_red = cl_reduce(App(Const("I", combinator_sort("I", oo)), Var("f", oo)))
    skk = cl_reduce(app(s, k, k, x))
    for red, th, rule in [(skk, no_k, "K"), (skk, repeated_k, "K"), (typed_red, typed, "I")]:
        message = f"theory has no {rule} axiom at the needed sorts"
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            derive_cl_reduction(red, th)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            oracle_derive_cl_reduction(red, th)
    (i_axiom,) = [ax for ax in CL_THEORY.axioms if _spine(ax.conclusion.left)[0].name == "I"]
    eq = i_axiom.conclusion
    far = Inference(frozenset(), QuantEquation(eq.left, eq.right, Fraction(1, 2), eq.sort))
    far_i = replace(CL_THEORY, axioms=tuple(far if ax == i_axiom else ax for ax in CL_THEORY.axioms))
    with pytest.raises(PreconditionError, match="^theory has no I axiom at the needed sorts$"):
        derive_cl_reduction(cl_reduce(App(Const("I", STAR), x)), far_i)


def test_corpus_derivation_documents_are_pinned():
    """The documents of the 45 corpus derivations, byte for byte, so that
    any change to the derivation document shows here."""
    text = "\n".join(json.dumps(derivation_to_json(d)) for _, _, d in CORPUS)
    assert len(CORPUS) == 45
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "f1450fa51063af29145736fe487e871ab843a5cd8512f98651f61df8e7ec3571"
    )


# ---------------------------------------------------------------------------
# Malformed JSON is a StructuralError, never another exception


def _valid():
    th, name, d = CORPUS[0]
    data = json.loads(json.dumps(derivation_to_json(d)))
    # the cases below rely on one entry in each table
    assert len(data["terms"]) == len(data["equations"]) == len(data["proof"]) == 1
    return data


STAR_VAR = {"node": "var", "name": "x", "sort": "*"}
STAR_BODY = {"node": "bvar", "index": 0, "sort": "*"}


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _with_entry(**fields):
    """Append two leaves and then an app record with the given fields."""
    def edit(data):
        data["terms"] += [STAR_VAR, STAR_VAR]
        data["terms"].append({"node": "app", "fn": 0, "arg": 0, **fields})
    return edit


def _at_own_position(field):
    def edit(data):
        data["terms"].append({"node": "app", "fn": 0, "arg": 0, field: len(data["terms"])})
    return edit


def _forward(data):
    n = len(data["terms"])
    data["terms"] += [{"node": "app", "fn": n + 1, "arg": 0}, STAR_VAR]


def _premises(*premises):
    return _set(["proof", -1, "premises"], list(premises))


def _lam_body_forward(data):
    data["terms"].append({"node": "lam", "hint": "x", "var_sort": "*", "body": len(data["terms"])})


# Each case edits the valid document and must fail with its own message.
# The root is the last proof entry; the one equation record is the first.
MALFORMED_DERIVATIONS = {
    "missing rule": (lambda data: data["proof"][-1].pop("rule"), "bad JSON: missing field 'rule'"),
    "rule not a string": (
        _set(["proof", -1, "rule"], ["Refl"]),
        "bad JSON: field 'rule' has type list",
    ),
    "params not an object": (
        _set(["proof", -1, "params"], 5),
        "bad JSON: field 'params' has type int",
    ),
    "env not an object": (
        _set(["proof", -1, "params"], {"env": [1]}),
        "bad JSON: field 'env' has type list",
    ),
    "env term not an object": (
        _set(["proof", -1, "params"], {"env": {"x": 3}}),
        "bad JSON: term index 3 is not an earlier table entry",
    ),
    "env value a nested dict": (
        _set(["proof", -1, "params"], {"env": {"x": STAR_VAR}}),
        "bad JSON: term index has type dict",
    ),
    "premises not a list": (
        _set(["proof", -1, "premises"], "abc"),
        "bad JSON: field 'premises' has type str",
    ),
    "premise index self-referential": (
        _premises(0),
        "bad JSON: proof index 0 is not an earlier table entry",
    ),
    "premise index a bool": (_premises(False), "bad JSON: proof index has type bool"),
    "premise index a nested entry": (
        _premises({"rule": "Refl"}),
        "bad JSON: proof index has type dict",
    ),
    "conclusion missing": (
        lambda data: data["proof"][-1].pop("eq"),
        "bad JSON: missing field 'eq'",
    ),
    "eq index out of range": (
        _set(["proof", -1, "eq"], 1),
        "bad JSON: equation index 1 is not an earlier table entry",
    ),
    "eq index a bool": (_set(["proof", -1, "eq"], False), "bad JSON: field 'eq' has type bool"),
    "eq a nested record": (
        lambda data: data["proof"][-1].update(eq=data["equations"][0]),
        "bad JSON: equation index has type dict",
    ),
    "hyps not a list": (
        _set(["proof", -1, "hyps"], {"a": 1}),
        "bad JSON: field 'hyps' has type dict",
    ),
    "hyp index a string": (
        _set(["proof", -1, "hyps"], ["0"]),
        "bad JSON: equation index has type str",
    ),
    "hyp index negative": (
        _set(["proof", -1, "hyps"], [-1]),
        "bad JSON: equation index -1 is not an earlier table entry",
    ),
    "X entry not an object": (
        _set(["equations", 0, "X"], ["x"]),
        "bad JSON: expected an object, found str",
    ),
    "X name not a string": (
        _set(["equations", 0, "X"], [{"name": 1, "sort": "*"}]),
        "bad JSON: field 'name' has type int",
    ),
    "eps not a fraction": (
        _set(["equations", 0, "eps"], "abc"),
        "bad JSON: epsilon 'abc' is not a fraction",
    ),
    "eps divides by zero": (
        _set(["equations", 0, "eps"], "1/0"),
        "bad JSON: epsilon '1/0' is not a fraction",
    ),
    "eps a float": (_set(["equations", 0, "eps"], 0.5), "bad JSON: field 'eps' has type float"),
    "sort not a string": (_set(["equations", 0, "sort"], 7), "bad JSON: field 'sort' has type int"),
    "terms missing": (lambda data: data.pop("terms"), "bad JSON: missing field 'terms'"),
    "equations missing": (
        lambda data: data.pop("equations"),
        "bad JSON: missing field 'equations'",
    ),
    "equations not a list": (
        _set(["equations"], {"0": {}}),
        "bad JSON: field 'equations' has type dict",
    ),
    "equations entry not an object": (
        lambda data: data["equations"].append("eq"),
        "bad JSON: expected an object, found str",
    ),
    "proof missing": (lambda data: data.pop("proof"), "bad JSON: missing field 'proof'"),
    "proof not an object": (_set(["proof", -1], []), "bad JSON: expected an object, found list"),
    "proof not a list": (
        lambda data: data.update(proof=data["proof"][-1]),
        "bad JSON: field 'proof' has type dict",
    ),
    "proof empty": (_set(["proof"], []), "bad JSON: proof has no entries"),
    "terms not a list": (_set(["terms"], {"0": STAR_VAR}), "bad JSON: field 'terms' has type dict"),
    "terms entry not an object": (
        lambda data: data["terms"].append([0, 1]),
        "bad term JSON: list indices must be integers or slices, not str",
    ),
    "terms entry a string": (
        lambda data: data["terms"].append("app"),
        "bad term JSON: string indices must be integers, not 'str'",
    ),
    "child index out of range": (
        _with_entry(fn=99),
        "bad JSON: term index 99 is not an earlier table entry",
    ),
    "child index forward": (_forward, "bad JSON: term index 2 is not an earlier table entry"),
    "child index self-referential": (
        _at_own_position("fn"),
        "bad JSON: term index 1 is not an earlier table entry",
    ),
    "arg index self-referential": (
        _at_own_position("arg"),
        "bad JSON: term index 1 is not an earlier table entry",
    ),
    "child index negative": (
        _with_entry(fn=-1),
        "bad JSON: term index -1 is not an earlier table entry",
    ),
    "child index a bool": (_with_entry(fn=True), "bad JSON: term index has type bool"),
    "child index a float": (_with_entry(fn=1.0), "bad JSON: term index has type float"),
    "child index a string": (_with_entry(arg="1"), "bad JSON: term index has type str"),
    "child a nested dict": (_with_entry(fn=STAR_VAR), "bad JSON: term index has type dict"),
    "lam body forward": (_lam_body_forward, "bad JSON: term index 1 is not an earlier table entry"),
    "side index out of range": (
        _set(["equations", 0, "left"], 1),
        "bad JSON: term index 1 is not an earlier table entry",
    ),
    "side index negative": (
        _set(["equations", 0, "right"], -1),
        "bad JSON: term index -1 is not an earlier table entry",
    ),
    "side index a bool": (
        _set(["equations", 0, "left"], False),
        "bad JSON: field 'left' has type bool",
    ),
    "side index a float": (
        _set(["equations", 0, "left"], 0.0),
        "bad JSON: term index has type float",
    ),
    "side index a string": (
        _set(["equations", 0, "left"], "0"),
        "bad JSON: term index has type str",
    ),
    "side a nested dict": (
        _set(["equations", 0, "left"], STAR_VAR),
        "bad JSON: term index has type dict",
    ),
    "side missing": (
        lambda data: data["equations"][0].pop("right"),
        "bad JSON: missing field 'right'",
    ),
}

# Each record is decoded as the only entry of a term document, and must
# fail with its own message.
MALFORMED_TERMS = {
    "bvar index a string": ({"node": "bvar", "index": "x", "sort": "*"}, "bad JSON: bound index 'x'"),
    "bvar index negative": ({"node": "bvar", "index": -1, "sort": "*"}, "bad JSON: bound index -1"),
    "bvar index a bool": ({"node": "bvar", "index": True, "sort": "*"}, "bad JSON: bound index True"),
    "var name unhashable": (
        {"node": "var", "name": ["x"], "sort": "*"},
        "bad term JSON: unhashable type: 'list'",
    ),
    "var name a number": (
        {"node": "var", "name": 1, "sort": "*"},
        "bad JSON: var name 1 is not a string",
    ),
    "const sort missing": ({"node": "const", "name": "K"}, "bad term JSON: 'sort'"),
    "sort not a string": (
        {"node": "var", "name": "x", "sort": None},
        "bad JSON: sort None is not a string",
    ),
    "not an object": ([1, 2], "bad term JSON: list indices must be integers or slices, not str"),
    "null": (None, "bad term JSON: 'NoneType' object is not subscriptable"),
    "child null": (
        {"node": "lam", "hint": "x", "var_sort": "*", "body": None},
        "bad JSON: term index has type NoneType",
    ),
    "kind missing": ({"name": "x"}, "bad term JSON: 'node'"),
    "kind unknown": ({"node": "pair"}, "unknown term node kind 'pair'"),
    "app missing arg": ({"node": "app", "fn": 0}, "bad term JSON: 'arg'"),
    "app child not an object": (
        {"node": "app", "fn": "x", "arg": "y"},
        "bad JSON: term index has type str",
    ),
    "app child itself": (
        {"node": "app", "fn": 0, "arg": 0},
        "bad JSON: term index 0 is not an earlier table entry",
    ),
    "lam hint a number": (
        {"node": "lam", "hint": 3, "var_sort": "*", "body": 0},
        "bad JSON: binder hint 3 is not a string",
    ),
    "lam sort missing": ({"node": "lam", "hint": "x", "body": 0}, "bad term JSON: 'var_sort'"),
}

MALFORMED_TERM_DOCUMENTS = {
    "not an object": ([STAR_VAR], "bad JSON: expected an object, found list"),
    "nested tree": (STAR_VAR, "bad JSON: missing field 'terms'"),
    "terms missing": ({"root": 0}, "bad JSON: missing field 'terms'"),
    "terms not a list": ({"terms": {"0": STAR_VAR}, "root": 0}, "bad JSON: field 'terms' has type dict"),
    "root missing": ({"terms": [STAR_VAR]}, "bad JSON: missing field 'root'"),
    "root a bool": ({"terms": [STAR_VAR], "root": False}, "bad JSON: field 'root' has type bool"),
    "root a nested dict": (
        {"terms": [STAR_VAR], "root": STAR_VAR},
        "bad JSON: term index has type dict",
    ),
    "root negative": (
        {"terms": [STAR_VAR], "root": -1},
        "bad JSON: term index -1 is not an earlier table entry",
    ),
    "root out of range": (
        {"terms": [STAR_VAR], "root": 1},
        "bad JSON: term index 1 is not an earlier table entry",
    ),
}


# Each case edits the first equation record of a document (keeping it
# valid) and a copy of it, which is appended to the equation table and
# replaces it as the conclusion of the first proof entry; the copy must
# fail as a record of its own does, also where its raw fields equal the
# earlier record's (True == 1 == 1.0).
MALFORMED_REPEATS = {
    "eps a bool": (
        lambda first, later, n: (first.update(eps=1), later.update(eps=True)),
        "bad JSON: field 'eps' has type bool",
    ),
    "eps a float": (
        lambda first, later, n: (first.update(eps=1), later.update(eps=1.0)),
        "bad JSON: field 'eps' has type float",
    ),
    "side index a bool": (
        lambda first, later, n: (first.update(left=1), later.update(left=True)),
        "bad JSON: field 'left' has type bool",
    ),
    "side index out of range": (
        lambda first, later, n: later.update(right=n),
        "bad JSON: term index {n} is not an earlier table entry",
    ),
    "X entry not an object": (
        lambda first, later, n: later.update(X=["x"]),
        "bad JSON: expected an object, found str",
    ),
    "X name not a string": (
        lambda first, later, n: later.update(X=[{"name": ["x"], "sort": "*"}]),
        "bad JSON: field 'name' has type list",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPEATS))
def test_malformed_copy_of_a_repeated_record_is_structural_error(name):
    x = Var("x", STAR)
    s, k = Const("S", STAR), Const("K", STAR)
    d = derive_cl_reduction(cl_reduce(app(s, k, k, x), fuel=100), CL_THEORY)
    data = json.loads(json.dumps(derivation_to_json(d)))
    first = data["equations"][data["proof"][0]["eq"]]
    edit, message = MALFORMED_REPEATS[name]
    n = len(data["terms"])
    later = dict(first)
    edit(first, later, n)
    derivation_from_json(data)  # the edited earlier record is valid
    data["proof"][0]["eq"] = len(data["equations"])
    data["equations"].append(later)
    with pytest.raises(StructuralError) as info:
        derivation_from_json(data)
    assert str(info.value) == message.format(n=n)


@pytest.mark.parametrize("name", sorted(MALFORMED_DERIVATIONS))
def test_malformed_derivation_json_is_structural_error(name):
    data = _valid()
    edit, message = MALFORMED_DERIVATIONS[name]
    edit(data)
    with pytest.raises(StructuralError) as info:
        derivation_from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(MALFORMED_TERMS))
def test_malformed_term_json_is_structural_error(name):
    record, message = MALFORMED_TERMS[name]
    with pytest.raises(StructuralError) as info:
        term_from_json({"terms": [record], "root": 0})
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(MALFORMED_TERM_DOCUMENTS))
def test_malformed_term_document_is_structural_error(name):
    data, message = MALFORMED_TERM_DOCUMENTS[name]
    with pytest.raises(StructuralError) as info:
        term_from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize("data", [[], "rule", 5, None])
def test_non_object_derivation_is_structural_error(data):
    with pytest.raises(StructuralError):
        derivation_from_json(data)
