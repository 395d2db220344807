import hashlib
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from qlam import corpus
from qlam.cli import SCENARIOS, _dumps, main
from qlam.corpus import I01, corpus_derivations, corpus_theories, theta_xi_maps
from qlam.finite_models import satisfies_inference
from qlam.metric_core import FiniteMetricSpace
from qlam.quant_deduction import (
    Derivation,
    Inference,
    QuantEquation,
    builtin_theory,
    d_cut,
    d_refl,
    derivation_to_json,
)
from qlam.term_syntax import (
    STAR,
    App,
    BaseSort,
    Const,
    Signature,
    Var,
    arrow,
    render_sort,
    term_to_json,
)

runner = CliRunner()


def run(*args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_parse_json_output():
    res = run("parse", "--expr", "\\x:o. x")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["sort"] == "o->o"


def test_typecheck_untyped():
    res = run("typecheck", "--expr", "--untyped", "S K K x")
    assert json.loads(res.output)["sort"] == "*"


@pytest.mark.parametrize("flag", ["-H", "--human"])
def test_human_flag_is_a_usage_error(flag):
    """JSON is the one output: the removed human rendering is an unknown
    option."""
    res = runner.invoke(main, ["normalize", "--expr", "(\\x:o. x)", flag])
    assert res.exit_code == 2
    assert f"No such option '{flag}'" in res.output


def test_no_verb_declares_a_human_option():
    for name, command in main.commands.items():
        for param in command.params:
            assert not {"-H", "--human"} & set(param.opts + param.secondary_opts), (name, param)


def test_reduce_cl_trace():
    res = run("reduce-cl", "--expr", "--untyped", "S K K x")
    data = json.loads(res.output)
    assert data["result"] == "x" and data["step_count"] == 2


def test_dist_e_metric_matches_worked_pair():
    res = run(
        "dist",
        "--metric",
        "e",
        "--expr",
        "\\x1:o->o. \\x2:o->o. x1 (x2 y:o)",
        "\\x1:o->o. \\x2:o->o. x1 (x2 z:o)",
    )
    assert json.loads(res.output) == {"value": "1/4"}


def test_usage_error_is_exit_2():
    res = runner.invoke(main, ["dist", "--metric", "nonsense", "a", "b"])
    assert res.exit_code == 2


def test_domain_error_is_exit_1():
    res = runner.invoke(main, ["parse", "--expr", "(((("])
    assert res.exit_code == 1


R25 = ("--const", "c1:o", "--const", "c2:o")


@pytest.mark.parametrize(
    "left, right, want",
    [
        (
            "\\x:o->o. x bot:o",
            "\\x:o->o. x (x c1)",
            {"value": "1/2", "comparable": True, "join": "\\x:o->o. x (x c1)"},
        ),
        (
            "\\x:o->o. x (x c1)",
            "\\x:o->o. x (x c2)",
            {"value": "1", "comparable": False, "join": None},
        ),
        (
            "\\x:o->o. x (x c1)",
            "\\x:o->o. x (x c1)",
            {"value": "0", "comparable": True, "join": "\\x:o->o. x (x c1)"},
        ),
    ],
    ids=["comparable", "incomparable", "equal"],
)
def test_dist_order_metric_outcomes(left, right, want):
    res = run("dist", "--metric", "order", "--expr", *R25, left, right)
    assert res.exit_code == 0
    assert json.loads(res.output) == want


def test_dist_dnf_metric_on_the_remark25_pair():
    res = run("dist", "--metric", "dnf", "--expr", *R25, "\\x:o->o. x (x c1)", "\\x:o->o. x (x c2)")
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "value": "1/2",
        "status": "exact",
        "witness_budget": 12,
        "failing_witness": None,
    }


def test_dist_fth_metric_on_church_2_and_4():
    res = run(
        "dist",
        "--metric",
        "fth",
        "--expr",
        "\\f:o->o. \\x:o. f (f x)",
        "\\f:o->o. \\x:o. f (f (f (f x)))",
    )
    assert res.exit_code == 0
    assert json.loads(res.output) == {"value": "1/2", "status": "exact"}


def test_hom_dist_via_files(tmp_path):
    a, b, f, g = theta_xi_maps()
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pf = tmp_path / "f.json"
    pg = tmp_path / "g.json"
    pa.write_text(a.dumps())
    pb.write_text(b.dumps())
    pf.write_text(json.dumps(list(f.table)))
    pg.write_text(json.dumps(list(g.table)))
    for kind, value in (("phi", "1/2"), ("xi", "15/16"), ("xi_prime", "15/16"), ("theta", "2")):
        res = run("hom-dist", "--kind", kind, str(pa), str(pb), str(pf), str(pg))
        assert res.exit_code == 0
        assert json.loads(res.output) == {"value": value}


@pytest.mark.parametrize(
    "g_table, error",
    [
        (["-1", "x", "1"], {"error": "unknown point 'x'", "kind": "StructuralError"}),
        (
            ["-1", "x"],
            {"error": "map table length does not match domain size", "kind": "StructuralError"},
        ),
    ],
    ids=["unknown-point", "wrong-length"],
)
def test_hom_dist_bad_map_is_exit_1(tmp_path, g_table, error):
    """Names become indices at the boundary: the length is checked before
    the names."""
    a = FiniteMetricSpace.line_grid(Fraction(-1), Fraction(1), Fraction(1))
    files = {"a": a.dumps(), "f": json.dumps(list(a.points)), "g": json.dumps(g_table)}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = [str(tmp_path / f"{name}.json") for name in ("a", "a", "f", "g")]
    res = run("hom-dist", "--kind", "phi", *paths)
    assert res.exit_code == 1
    assert json.loads(res.output) == error


@pytest.mark.parametrize(
    "points, dist, sorts, carriers",
    [
        # a discrete base makes every map non-expansive
        (
            ["a", "b"],
            [["0", "1"], ["1", "0"]],
            ["o", "o->o", "(o->o)->o"],
            {"o": 2, "o->o": 4, "(o->o)->o": 16},
        ),
        # on the path 0 - 1/2 - 1, f(1/2) = 1/2 leaves 3 x 3 choices and
        # f(1/2) = 0 or 1 leaves 2 x 2 each
        (
            ["0", "1/2", "1"],
            [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
            ["o", "o->o"],
            {"o": 3, "o->o": 17},
        ),
    ],
    ids=["discrete", "path"],
)
def test_build_fts_counts_the_full_carriers(tmp_path, points, dist, sorts, carriers):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"points": points, "dist": dist}))
    res = run("build-fts", str(base), *(arg for s in sorts for arg in ("--sort", s)))
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "bases": {"o": {"dist": dist, "points": points}},
        "full_carriers": carriers,
        "name": "fts",
    }


def test_check_proof_valid_and_invalid(tmp_path):
    name, d = corpus_derivations()["U_CL"][0]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(derivation_to_json(d)))
    res = run("check-proof", str(p), "--theory", "U_CL")
    assert res.exit_code == 0 and json.loads(res.output)["ok"]

    bad = derivation_to_json(d)
    bad["proof"][-1]["rule"] = "Nonsense"
    p.write_text(json.dumps(bad))
    res = run("check-proof", str(p), "--theory", "U_CL")
    assert res.exit_code == 1
    assert not json.loads(res.output)["ok"]


def test_check_proof_reports_an_ill_sorted_subst(tmp_path):
    x, f = Var("x", I01), Var("f", arrow(I01, I01))
    refl = d_refl(x)
    d = Derivation("Subst", refl.conclusion, (refl,), {"env": {"x": f}})
    p = tmp_path / "d.json"
    p.write_text(json.dumps(derivation_to_json(d)))
    res = run("check-proof", str(p), "--theory", "U_lambda_eta_interval")
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "ok": False,
        "path": [],
        "reason": "Subst substitution is malformed: substitution for x has sort "
        "[0,1]->[0,1], expected [0,1]",
    }


def test_check_proof_reports_an_ill_sorted_nexp(tmp_path):
    """f a ~1 g b from a ~1 a, with f : o->o and g : p->o, is a failed
    check, not an error document."""
    o, p = BaseSort("o"), BaseSort("p")
    f, g = Const("f", arrow(o, o)), Const("g", arrow(p, o))
    a, b = Const("a", o), Const("b", p)
    th = builtin_theory("U_CL", Signature(constants={"f": f.sort, "g": g.sort, "a": o, "b": p}))
    hyp = QuantEquation(a, a, Fraction(1), o)
    d = Derivation("NExp", Inference(frozenset({hyp}), QuantEquation(App(f, a), App(g, b), Fraction(1), o)))
    theory_file, proof_file = tmp_path / "theory.json", tmp_path / "d.json"
    theory_file.write_text(json.dumps(th.to_json()))
    proof_file.write_text(json.dumps(derivation_to_json(d)))
    res = run("check-proof", str(proof_file), "--theory", str(theory_file))
    assert res.exit_code == 1
    assert json.loads(res.stdout) == {
        "ok": False,
        "path": [],
        "reason": "NExp hypotheses must equate the components at the same epsilon",
    }


@pytest.mark.parametrize("key", sorted(corpus_derivations()))
def test_check_proof_corpus_derivations_by_key_and_by_file(tmp_path, key):
    theory_file = tmp_path / "theory.json"
    theory_file.write_text(json.dumps(corpus_theories()[key].to_json()))
    p = tmp_path / "d.json"
    for name, d in corpus_derivations()[key]:
        p.write_text(json.dumps(derivation_to_json(d)))
        for spec in (key, str(theory_file)):
            res = run("check-proof", str(p), "--theory", spec)
            assert res.exit_code == 0, (name, spec, res.output)
            assert json.loads(res.output)["ok"]


def _theory_without_name(data):
    del data["name"]


def _non_string_sort(data):
    data["signature"]["constants"]["k0"] = 5


def _list_sort(data):
    data["signature"]["constants"]["k0"] = ["[0,1]"]


def _float_interval_value(data):
    data["interval_values"]["k1_2"] = 0.5


def _short_table_row(data):
    data["tables"]["m"][0] = ["0"]


@pytest.mark.parametrize(
    "corrupt",
    [_theory_without_name, _non_string_sort, _list_sort, _float_interval_value, _short_table_row],
    ids=["missing-name", "non-string-sort", "list-sort", "float-interval-value", "short-table-row"],
)
def test_check_proof_malformed_theory_file_is_exit_1(tmp_path, corrupt):
    name, d = corpus_derivations()["U_CL_interval"][0]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(derivation_to_json(d)))
    data = corpus_theories()["U_CL_interval"].to_json()
    corrupt(data)
    theory_file = tmp_path / "theory.json"
    theory_file.write_text(json.dumps(data))
    res = runner.invoke(main, ["check-proof", str(p), "--theory", str(theory_file)])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert set(json.loads(res.stderr)) == {"error", "kind"}
    assert json.loads(res.stderr)["kind"] == "StructuralError"


def test_check_proof_unknown_theory_and_corpus_flag_are_usage_errors(tmp_path):
    name, d = corpus_derivations()["U_CL"][0]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(derivation_to_json(d)))
    res = runner.invoke(main, ["check-proof", str(p), "--theory", str(tmp_path / "nope.json")])
    assert res.exit_code == 2
    assert all(key in res.output for key in corpus_theories())
    res = runner.invoke(main, ["check-proof", str(p), "--theory", "U_CL", "--corpus"])
    assert res.exit_code == 2


def _drop_rule(data):
    del data["proof"][-1]["rule"]
    return data


def _bvar_index_x(data):
    data["terms"][0] = {"node": "bvar", "index": "x", "sort": "*"}
    return data


def _eps_abc(data):
    data["equations"][data["proof"][-1]["eq"]]["eps"] = "abc"
    return data


def _params_5(data):
    data["proof"][-1]["params"] = 5
    return data


@pytest.mark.parametrize(
    "corrupt",
    [_drop_rule, _bvar_index_x, _eps_abc, lambda data: [data], _params_5],
    ids=["missing-rule", "bvar-index-x", "eps-abc", "top-level-list", "params-5"],
)
def test_check_proof_malformed_json_is_exit_1_without_traceback(tmp_path, corrupt):
    name, d = corpus_derivations()["U_CL"][0]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(corrupt(json.loads(json.dumps(derivation_to_json(d))))))
    res = run("check-proof", str(p), "--theory", "U_CL")
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert json.loads(res.stderr)["kind"] == "StructuralError"


def _tree(t) -> dict:
    """t as the nested JSON term tree that preceded term documents: each
    child (fn, arg, body) is written out as its own record."""
    doc = term_to_json(t)

    def expand(i):
        return {k: expand(v) if k in ("fn", "arg", "body") else v for k, v in doc["terms"][i].items()}

    return expand(doc["root"])


def _nested_inference(inf) -> dict:
    """inf in the nested form that preceded inference documents: hyps and
    eq with each side a nested term tree."""

    def equation(eq):
        xs = sorted(({"name": v.name, "sort": render_sort(v.sort)} for v in eq.quantified), key=str)
        return {
            "left": _tree(eq.left),
            "right": _tree(eq.right),
            "eps": str(eq.eps),
            "sort": render_sort(eq.sort),
            "X": xs,
        }

    return {"hyps": [equation(h) for h in inf.hypotheses], "eq": equation(inf.conclusion)}


def _nested_form(d) -> dict:
    """d in the nested form that preceded the term table: the proof tree
    with every equation side and env value written out as a JSON term
    tree."""
    params = dict(d.params)
    if "env" in params:
        params["env"] = {name: _tree(t) for name, t in params["env"].items()}
    return {
        "rule": d.rule,
        "params": params,
        "conclusion": _nested_inference(d.conclusion),
        "premises": [_nested_form(p) for p in d.premises],
    }


def test_check_proof_rejects_the_nested_form(tmp_path):
    name, d = corpus_derivations()["U_CL"][0]
    nested = _nested_form(d)
    assert "node" in nested["conclusion"]["eq"]["left"]  # a term tree, not an index
    p = tmp_path / "old.json"
    p.write_text(json.dumps(nested))
    res = runner.invoke(main, ["check-proof", str(p), "--theory", "U_CL"])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert set(json.loads(res.stderr)) == {"error", "kind"}
    assert json.loads(res.stderr)["kind"] == "StructuralError"


def _exit_1_with_structural_error(res):
    assert res.exit_code == 1, res.output
    assert "Traceback" not in res.output
    assert json.loads(res.stderr) == {"error": json.loads(res.stderr)["error"], "kind": "StructuralError"}


def _proof_tree_form(doc) -> dict:
    """A derivation document in the form that preceded the equation and
    proof tables: the term table, and the proof as a nested tree whose
    nodes write out each equation record."""
    records, nodes = doc["equations"], []
    for entry in doc["proof"]:
        conclusion = {"hyps": [records[i] for i in entry["hyps"]], "eq": records[entry["eq"]]}
        premises = [nodes[i] for i in entry["premises"]]
        node = {"rule": entry["rule"], "params": entry["params"], "conclusion": conclusion}
        nodes.append({**node, "premises": premises})
    return {"terms": doc["terms"], "proof": nodes[-1]}


def test_check_proof_and_model_check_reject_the_tree_form(tmp_path):
    name, d = corpus_derivations()["U_CL_interval"][0]
    old_proof = tmp_path / "proof.json"
    old_proof.write_text(json.dumps(_proof_tree_form(derivation_to_json(d))))
    res = runner.invoke(main, ["check-proof", str(old_proof), "--theory", "U_CL_interval"])
    _exit_1_with_structural_error(res)
    doc = d.conclusion.to_json()
    records = doc["equations"]
    old_inf = tmp_path / "inf.json"
    inference = {"hyps": [records[i] for i in doc["hyps"]], "eq": records[doc["eq"]]}
    old_inf.write_text(json.dumps({"terms": doc["terms"], "inference": inference}))
    res = runner.invoke(main, ["model-check", str(old_inf), "--algebra", "grid8"])
    _exit_1_with_structural_error(res)


def test_check_proof_takes_a_deep_proof(tmp_path):
    """A Cut chain 20,000 nodes deep is written, read and checked at the
    default recursion limit."""
    d = d_refl(Var("x", STAR))
    for _ in range(20_000):
        d = d_cut([], d)
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(derivation_to_json(d)))
    res = run("check-proof", str(p), "--theory", "U_CL_untyped")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"]


def test_term_and_inference_files_reject_the_nested_form(tmp_path):
    name, d = corpus_derivations()["U_CL_interval"][0]
    inf = d.conclusion
    old_inf = tmp_path / "inf.json"
    old_inf.write_text(json.dumps(_nested_inference(inf)))
    _exit_1_with_structural_error(runner.invoke(main, ["model-check", str(old_inf), "--algebra", "grid8"]))
    old_term = tmp_path / "term.json"
    old_term.write_text(json.dumps(_tree(inf.conclusion.left)))
    for verb in ("parse", "typecheck", "normalize"):
        _exit_1_with_structural_error(runner.invoke(main, [verb, str(old_term)]))
    # the inference document itself is read
    new_inf = tmp_path / "new.json"
    new_inf.write_text(json.dumps(inf.to_json()))
    res = run("model-check", str(new_inf), "--algebra", "grid8")
    assert res.exit_code == 0 and json.loads(res.output)["satisfied"]


@pytest.mark.parametrize(
    "args",
    [
        ["parse", "--expr", "\\f:o->o. \\x:o. f (f x)"],
        ["normalize", "--expr", "\\f:o->o. f"],
        ["bracket", "--expr", "--untyped", "S (K x) (y x)", "--var", "x"],
        ["project", "--expr", "\\x:o->o. x (x c1:o)", "--level", "1"],
    ],
    ids=["parse", "normalize", "bracket", "project"],
)
def test_term_field_round_trips_through_parse(tmp_path, args):
    res = run(*args)
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    path = tmp_path / "term.json"
    path.write_text(json.dumps(out["term"]))
    again = run("parse", str(path))
    assert again.exit_code == 0, again.output
    assert json.loads(again.output)["printed"] == out["printed"]
    assert json.loads(again.output)["term"] == out["term"]


@pytest.mark.parametrize(
    "doc",
    [{"terms": [], "root": 0}, {"terms": [{"node": "app", "fn": 0, "arg": 0}], "root": 0}, []],
    ids=["empty-table", "self-reference", "list"],
)
def test_malformed_term_document_is_exit_1_without_traceback(tmp_path, doc):
    path = tmp_path / "term.json"
    path.write_text(json.dumps(doc))
    _exit_1_with_structural_error(runner.invoke(main, ["parse", str(path)]))


def _deep_app_json(depth: int) -> str:
    # json.dumps itself overflows on a tree this deep, so build the text
    leaf = '{"node": "var", "name": "x", "sort": "*"}'
    arg = ', "arg": {"node": "var", "name": "y", "sort": "*"}}'
    return '{"node": "app", "fn": ' * depth + leaf + arg * depth


def test_deep_json_proof_is_exit_1_without_traceback(tmp_path):
    side = _deep_app_json(5000)
    eq = '{"left": %s, "right": %s, "eps": "0", "sort": "*", "X": []}' % (side, side)
    text = '{"rule": "Refl", "params": {}, "conclusion": {"hyps": [], "eq": %s}, "premises": []}' % eq
    p = tmp_path / "deep.json"
    p.write_text(text)
    res = run("check-proof", str(p), "--theory", "U_CL")
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert json.loads(res.stderr)["kind"] == "RecursionError"


def test_typecheck_takes_a_deep_untyped_spine():
    res = run("typecheck", "--expr", "--untyped", " ".join(["x"] * 10_001))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {"sort": "*"}


@pytest.mark.parametrize("verb", ["parse", "normalize"])
def test_deep_untyped_spine_prints(verb):
    text = " ".join(["x"] * 10_001)
    res = run(verb, "--expr", "--untyped", text)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["printed"] == text


def test_deep_untyped_spine_reduction_is_exit_1_without_traceback():
    # the CL redex search still recurses once per argument
    res = run("reduce-cl", "--expr", "--untyped", " ".join(["x"] * 1201))
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert json.loads(res.stderr)["kind"] == "RecursionError"


def test_bracket_mixed_regimes_is_exit_1():
    # an untyped variable abstracted out of a typed term has no combinator
    # sorts: the sort formulas of the two regimes are one and reject the mix
    res = run("bracket", "--expr", "f:o->o y:o", "--var", "x:*")
    assert res.exit_code == 1
    assert json.loads(res.stderr) == {
        "error": "cannot mix the untyped sort with typed sorts",
        "kind": "SortError",
    }


@pytest.mark.parametrize("verb", ["normalize", "typecheck"])
def test_untyped_head_on_a_typed_argument_is_exit_1(verb):
    res = run(verb, "--expr", "x:* f:o->o")
    assert res.exit_code == 1
    assert json.loads(res.stderr) == {
        "error": "cannot mix the untyped sort with typed sorts",
        "kind": "SortError",
    }


@pytest.mark.parametrize(
    "text, error",
    [
        ("x:* f:o->o", "f is untyped: its annotation must be *, not o->o (at offset 4)"),
        ("K:o->o->o x", "K is untyped: its annotation must be *, not o->o->o (at offset 0)"),
    ],
)
def test_untyped_symbol_with_a_typed_annotation_is_exit_1(text, error):
    res = run("parse", "--expr", "--untyped", text)
    assert res.exit_code == 1
    assert json.loads(res.stderr) == {"error": error, "kind": "ParseError"}


@pytest.mark.parametrize("verb", ["parse", "normalize", "typecheck"])
@pytest.mark.parametrize(
    "text, error",
    [
        ("bot:o", "bot is untyped: its annotation must be *, not o (at offset 0)"),
        ("\\x:o. x", "x is untyped: its annotation must be *, not o (at offset 1)"),
        ("\\x:o->o. x", "x is untyped: its annotation must be *, not o->o (at offset 1)"),
    ],
)
def test_untyped_bottom_or_binder_with_a_typed_annotation_is_exit_1(verb, text, error):
    res = run(verb, "--expr", "--untyped", text)
    assert res.exit_code == 1
    assert json.loads(res.stderr) == {"error": error, "kind": "ParseError"}


@pytest.mark.parametrize("text", ["bot:*", "\\x:*. x", "bot", "\\x. x"])
def test_untyped_bottom_or_binder_annotated_star_parses(text):
    res = run("parse", "--expr", "--untyped", text)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["sort"] == "*"


def test_untyped_symbol_annotated_star_parses():
    res = run("parse", "--expr", "--untyped", "x:* K:* y")
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert (data["printed"], data["sort"]) == ("x K y", "*")


def test_build_grid_emits_the_algebra():
    unit = {
        "points": ["0", "1/2", "1"],
        "dist": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
    }
    half = {"points": ["0", "1/2"], "dist": [["0", "1/2"], ["1/2", "0"]]}
    res = run("build-grid", "--interval", "0:1:1/2")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {
        "bases": {"[0,1]": unit},
        "full_carriers": {"[0,1]": 3},
        "name": "grid",
    }
    res = run("build-grid", "--interval", "0:1:1/2", "--interval", "0:1/2:1/2")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {
        "bases": {"[0,1]": unit, "[0,1/2]": half},
        "full_carriers": {"[0,1]": 3, "[0,1/2]": 2},
        "name": "grid",
    }


@pytest.mark.parametrize("interval", ["0:1:0", "0:1:-1/2", "0:1:2/3"])
def test_build_grid_bad_step_is_exit_1(interval):
    res = run("build-grid", "--interval", interval)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["kind"] == "StructuralError"


@pytest.mark.parametrize("interval", ["0:1:abc", "0:1:1/0", "0:1"])
def test_build_grid_malformed_interval_is_usage_error(interval):
    res = run("build-grid", "--interval", interval)
    assert res.exit_code == 2
    assert "Traceback" not in res.output


def test_build_grid_has_no_size_budget_option():
    assert run("build-grid", "--interval", "0:1:1/2", "--size-budget", "1").exit_code == 2


def test_harness_has_no_jobs_option():
    assert run("harness", "--jobs", "4").exit_code == 2


def test_harness_emits_json_lines():
    res = run("harness")
    assert res.exit_code == 0
    lines = [json.loads(l) for l in res.output.strip().splitlines()]
    assert len(lines) == 71
    assert all(r["status"] != "violated" for r in lines)
    # 64 satisfied and 7 skipped, byte for byte as since the benchmark
    # was defined
    assert (
        hashlib.sha256(res.output.encode()).hexdigest()
        == "8fd722ea630426eab45eff653940872fcec01c2355d478cd99389e37eac5afcd"
    )


def test_model_check_builds_only_the_named_algebra(tmp_path, monkeypatch):
    built = []

    def counted(name, build):
        def wrapped():
            built.append(name)
            return build()

        return wrapped

    for name, build in list(corpus.ALGEBRAS.items()):
        monkeypatch.setitem(corpus.ALGEBRAS, name, counted(name, build))
    x, k = Var("x", I01), Const("k1_2", I01)
    inf = Inference(frozenset(), QuantEquation(x, k, Fraction(1, 4), I01))
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(inf.to_json()))
    res = run("model-check", str(path), "--algebra", "grid8")
    assert res.exit_code == 0
    assert built == ["grid8"]
    want = satisfies_inference(corpus.corpus_algebras()["grid8"], inf).to_json()
    assert json.loads(res.output) == want and not want["satisfied"]
    assert "[ex15|fts1|fts2|fts3|grid8|partial3]" in run("model-check", "--help").output


def test_model_check_has_no_mode_option(tmp_path):
    x = Var("x", I01)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(Inference(frozenset(), QuantEquation(x, x, 0, I01)).to_json()))
    res = runner.invoke(main, ["model-check", str(path), "--algebra", "grid8", "--mode", "sat"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repro_scenarios_match_goldens(name):
    res = run("repro", name)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["status"] == "PASS"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repro_scenarios_deterministic(name):
    assert _dumps(SCENARIOS[name]()) == _dumps(SCENARIOS[name]())


# Space files: entries are Fraction strings, "inf" or integers, points a
# list of strings.  Written as text so that 1e400 stays a bare JSON number.
GOOD_POINTS = '["a", "b"]'
BAD_SPACES = {
    "zero-denominator": '{"points": %s, "dist": [["0", "1/0"], ["1/0", "0"]]}' % GOOD_POINTS,
    "bare-1e400": '{"points": %s, "dist": [[0, 1e400], [1e400, 0]]}' % GOOD_POINTS,
    "float": '{"points": %s, "dist": [[0, 0.1], [0.1, 0]]}' % GOOD_POINTS,
    "true": '{"points": %s, "dist": [[0, true], [true, 0]]}' % GOOD_POINTS,
    "null": '{"points": %s, "dist": [[0, null], [null, 0]]}' % GOOD_POINTS,
    "points-string": '{"points": "ab", "dist": [["0", "1"], ["1", "0"]]}',
    "points-ints": '{"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]}',
    "negative": '{"points": %s, "dist": [["0", "-1/2"], ["-1/2", "0"]]}' % GOOD_POINTS,
    "not-a-number": '{"points": %s, "dist": [["0", "abc"], ["abc", "0"]]}' % GOOD_POINTS,
    "row-not-list": '{"points": %s, "dist": ["01", "10"]}' % GOOD_POINTS,
    "top-level-list": "[]",
    "missing-dist": '{"points": %s}' % GOOD_POINTS,
}


def _space_verbs(tmp_path, text):
    space = tmp_path / "space.json"
    space.write_text(text)
    good = tmp_path / "good.json"
    good.write_text('{"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}')
    table = tmp_path / "f.json"
    table.write_text('["a", "b"]')
    return [
        ["classify", str(space)],
        ["exp-check", str(space)],
        ["hom-dist", "--kind", "xi", str(space), str(good), str(table), str(table)],
        ["hom-dist", "--kind", "xi", str(good), str(space), str(table), str(table)],
    ]


@pytest.mark.parametrize("name", sorted(BAD_SPACES))
def test_bad_space_json_is_exit_1_with_json(tmp_path, name):
    for args in _space_verbs(tmp_path, BAD_SPACES[name]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, (args, res.output)
        assert "Traceback" not in res.output
        assert json.loads(res.stderr)["kind"] == "StructuralError"


def test_space_json_accepts_fraction_strings_inf_and_integers(tmp_path):
    text = '{"points": ["a", "b", "c"], "dist": [[0, "1/2", "inf"], ["0.5", 0, "inf"], ["inf", "inf", "0"]]}'
    (args, *_) = _space_verbs(tmp_path, text)
    res = run(*args)
    assert res.exit_code == 0
    assert json.loads(res.output)["metric"]
    res = run("exp-check", args[1], "--mode", "image_restricted")
    assert json.loads(res.output) == {"ok": True}


def test_readme_cli_examples_are_valid_command_lines():
    """Each qlam line of the README's CLI block, its backslash continuations
    joined, builds the click context of main and then of its verb."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    lines = [argv for argv in lines if argv]
    assert len(lines) == 17 and all(argv[0] == "qlam" for argv in lines)
    for argv in lines:
        with main.make_context("qlam", argv[1:]) as ctx:
            main.get_command(ctx, argv[1]).make_context(argv[1], argv[2:], parent=ctx)
