"""Single-node corruption of every shipped derivation.

For each node of each valid derivation we apply every rule-specific
mutation operator that is guaranteed to break a side condition, rebuild
the tree around the corrupted node, and require the checker to reject
with a named reason.
"""

from fractions import Fraction as F

from qlam.corpus import corpus_derivations, corpus_theories
from qlam.quant_deduction import (
    Derivation,
    Inference,
    QuantEquation,
    check_derivation,
)
from qlam.term_syntax import App, Const, Lam, Var

THEORIES = corpus_theories()
DERIVS = corpus_derivations()


def _requant(eq: QuantEquation, quantified) -> QuantEquation:
    return QuantEquation(eq.left, eq.right, eq.eps, eq.sort, quantified)


def _reeps(eq: QuantEquation, eps) -> QuantEquation:
    return QuantEquation(eq.left, eq.right, F(eps), eq.sort, eq.quantified)


def _resides(eq: QuantEquation, left, right) -> QuantEquation:
    return QuantEquation(left, right, eq.eps, eq.sort, eq.quantified)


def _node(old: Derivation, inf: Inference) -> Derivation:
    return Derivation(old.rule, inf, old.premises, old.params)


# Each operator takes a node and returns a corrupted replacement, or
# None when the corruption would not be a guaranteed violation there.


def mut_assumpt_drop_hypothesis(node):
    if node.rule != "Assumpt":
        return None
    return _node(node, Inference(frozenset(), node.conclusion.conclusion))


def mut_refl_nonzero_eps(node):
    if node.rule != "Refl":
        return None
    eq = node.conclusion.conclusion
    return _node(node, Inference(node.conclusion.hypotheses, _reeps(eq, 1)))


def mut_prefl_distinct_sides(node):
    if node.rule != "PRefl":
        return None
    eq = node.conclusion.conclusion
    bad = _resides(eq, eq.left, Var("mut", eq.sort))
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_symm_unflipped(node):
    if node.rule != "Symm":
        return None
    (h,) = node.conclusion.hypotheses
    if h.left == h.right:
        return None
    return _node(node, Inference(node.conclusion.hypotheses, h))


def mut_triang_wrong_sum(node):
    if node.rule != "Triang":
        return None
    eq = node.conclusion.conclusion
    return _node(node, Inference(node.conclusion.hypotheses, _reeps(eq, eq.eps + 1)))


def mut_max_break(node):
    if node.rule != "Max":
        return None
    (h,) = node.conclusion.hypotheses
    eq = node.conclusion.conclusion
    if h.eps > 0:
        bad = _reeps(eq, h.eps / 2)
    else:
        bad = _resides(eq, Var("mut", eq.sort), eq.right)
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_nexp_break(node):
    if node.rule != "NExp":
        return None
    eq = node.conclusion.conclusion
    if isinstance(eq.left, App):
        bumped = frozenset(_reeps(h, h.eps + 1) for h in node.conclusion.hypotheses)
        return _node(node, Inference(bumped, eq))
    if isinstance(eq.left, Const):
        bad = _resides(eq, eq.left, Const("mutc", eq.sort))
        return _node(node, Inference(node.conclusion.hypotheses, bad))
    return None


def mut_alpha_nonzero_eps(node):
    if node.rule != "Alpha":
        return None
    eq = node.conclusion.conclusion
    return _node(node, Inference(node.conclusion.hypotheses, _reeps(eq, F(1, 2))))


def mut_xi_empty_quantified(node):
    if node.rule != "Xi":
        return None
    hyps = frozenset(_requant(h, frozenset()) for h in node.conclusion.hypotheses)
    eq = _requant(node.conclusion.conclusion, frozenset())
    return _node(node, Inference(hyps, eq))


def mut_beta_wrong_contractum(node):
    if node.rule != "Beta":
        return None
    eq = node.conclusion.conclusion
    if eq.left == eq.right:
        return None
    bad = _resides(eq, eq.left, eq.left)
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_eta_wrong_expansion(node):
    if node.rule != "Eta":
        return None
    eq = node.conclusion.conclusion
    if eq.left == eq.right:
        return None
    bad = _resides(eq, eq.left, eq.left)
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_abstraction_swapped_sides(node):
    if node.rule != "Abstraction":
        return None
    eq = node.conclusion.conclusion
    if eq.left == eq.right:
        return None
    bad = _resides(eq, eq.right, eq.left)
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_concretion_grown_set(node):
    if node.rule != "Concretion":
        return None
    eq = node.conclusion.conclusion
    grown = eq.quantified | {Var("mutq", eq.sort)}
    return _node(node, Inference(node.conclusion.hypotheses, _requant(eq, grown)))


def mut_axiom_variable_right(node):
    if node.rule != "Axiom":
        return None
    eq = node.conclusion.conclusion
    bad = _resides(eq, eq.left, Var("mutax", eq.sort))
    return _node(node, Inference(node.conclusion.hypotheses, bad))


def mut_cut_bumped_eps(node):
    if node.rule != "Cut":
        return None
    eq = node.conclusion.conclusion
    return _node(node, Inference(node.conclusion.hypotheses, _reeps(eq, eq.eps + 1)))


def mut_subst_bumped_eps(node):
    if node.rule != "Subst":
        return None
    eq = node.conclusion.conclusion
    return _node(node, Inference(node.conclusion.hypotheses, _reeps(eq, eq.eps + 1)))


OPERATORS = [
    mut_assumpt_drop_hypothesis,
    mut_refl_nonzero_eps,
    mut_prefl_distinct_sides,
    mut_symm_unflipped,
    mut_triang_wrong_sum,
    mut_max_break,
    mut_nexp_break,
    mut_alpha_nonzero_eps,
    mut_xi_empty_quantified,
    mut_beta_wrong_contractum,
    mut_eta_wrong_expansion,
    mut_abstraction_swapped_sides,
    mut_concretion_grown_set,
    mut_axiom_variable_right,
    mut_cut_bumped_eps,
    mut_subst_bumped_eps,
]


def paths(d: Derivation, prefix=()):
    yield prefix, d
    for i, p in enumerate(d.premises):
        yield from paths(p, prefix + (i,))


def replace_at(d: Derivation, path, new: Derivation) -> Derivation:
    if not path:
        return new
    i = path[0]
    premises = list(d.premises)
    premises[i] = replace_at(premises[i], path[1:], new)
    return Derivation(d.rule, d.conclusion, tuple(premises), d.params)


def all_mutants():
    for theory_name, lst in DERIVS.items():
        th = THEORIES[theory_name]
        for dname, d in lst:
            for path, node in paths(d):
                for op in OPERATORS:
                    mutated = op(node)
                    if mutated is None:
                        continue
                    yield th, dname, op.__name__, replace_at(d, path, mutated)


def test_corpus_is_valid_before_mutation():
    for theory_name, lst in DERIVS.items():
        th = THEORIES[theory_name]
        for dname, d in lst:
            assert check_derivation(d, th).ok, dname


def test_every_mutant_is_rejected_with_a_named_reason():
    total = 0
    for th, dname, opname, mutant in all_mutants():
        result = check_derivation(mutant, th)
        assert not result.ok, (dname, opname)
        assert isinstance(result.reason, str) and result.reason, (dname, opname)
        assert result.path is not None, (dname, opname)
        total += 1
    assert total >= 100, total


def test_mutant_count_reported():
    # keep an explicit floor so corpus shrinkage is caught loudly
    assert sum(1 for _ in all_mutants()) >= 100


def test_xi_rejects_a_namesake_of_the_bound_variable_at_another_sort():
    th = THEORIES["U_lambda_interval"]
    (xi,) = [d for name, d in DERIVS["U_lambda_interval"] if name == "xi_half"]
    (h,) = xi.conclusion.hypotheses
    eq = xi.conclusion.conclusion
    x = Var("x", eq.left.var_sort)
    namesake = Var("x", eq.left.sort)
    hyp = _resides(h, App(namesake, x), h.right)
    # the conclusion is left as it was, and then with only the x of the
    # bound sort abstracted: neither abstracts the hypothesis sides
    partly_bound = Lam("x", x.sort, App(namesake, eq.left.body.arg))
    for left in (eq.left, partly_bound):
        node = _node(xi, Inference(frozenset({hyp}), _resides(eq, left, eq.right)))
        result = check_derivation(node, th)
        assert not result.ok
        assert result.reason == "Xi conclusion must abstract the hypothesis sides"
