"""Batch command-line front end.

Every verb maps to one library operation and prints JSON (pretty,
sorted keys) on stdout.  Exit codes: 0 on success, 1 on domain errors
(the error JSON on stderr), 2 on usage errors.  check-proof (a failed
check), repro (FAIL or MISSING_GOLDEN) and harness (a violated record)
also exit 1, with their JSON on stdout.  The repro verb runs a named
scenario and diffs the result against the shipped golden file.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional

import click

from .errors import QlamError, StructuralError
from .metric_core import (
    FiniteMetricSpace,
    PointMap,
    check_exponentiable,
    classify_space,
    hom_distance,
)
from .finite_models import (
    build_full_type_structure,
    build_grid_algebra,
    satisfies_inference,
    soundness_harness,
)
from .quant_deduction import (
    Inference,
    QuantEquation,
    Theory,
    check_derivation,
    derivation_from_json,
)
from .rewrite_engine import bracket_abstract, cl_reduce, normalize
from .term_metrics import (
    dnf_distance,
    e_distance,
    fth_distance,
    nf_depth,
    order_distance,
    project,
)
from .term_syntax import (
    App,
    Bound,
    Const,
    Lam,
    Signature,
    Sort,
    STAR,
    Term,
    Var,
    free_vars,
    parse_sort,
    parse_term,
    print_term,
    render_sort,
    term_from_json,
    term_to_json,
    typecheck,
)

from . import corpus as _corpus


def _dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _emit(data: dict) -> None:
    click.echo(_dumps(data))


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (QlamError, OSError, json.JSONDecodeError, RecursionError) as exc:
            click.echo(_dumps({"error": str(exc), "kind": type(exc).__name__}), err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main() -> None:
    """Workbench for quantitative reasoning over CL and lambda terms."""


_sig_opts = [
    click.option("--untyped", is_flag=True, help="Parse in the single-sorted regime."),
    click.option(
        "--const",
        "consts",
        multiple=True,
        metavar="NAME:SORT",
        help="Declare a constant (repeatable).",
    ),
]


def _with(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return deco


def _signature(untyped: bool, consts) -> Signature:
    declared: dict[str, Sort] = {}
    for item in consts:
        name, _, sort_text = item.partition(":")
        if not sort_text:
            raise click.UsageError(f"--const needs NAME:SORT, got {item!r}")
        declared[name] = parse_sort(sort_text)
    return Signature(untyped=untyped, constants=declared)


def _load_term(source: str, expr: bool, sig: Signature) -> Term:
    if expr:
        return parse_term(source, sig)
    return term_from_json(_read_json(source))


def _load_space(path: str) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_json(_read_json(path))


_term_input = [
    click.argument("source", metavar="TERM"),
    click.option("--expr", is_flag=True, help="TERM is inline syntax, not a JSON file."),
]


@main.command()
@_with(_term_input + _sig_opts)
def parse(source, expr, untyped, consts) -> None:
    """Parse a term and report its JSON form and sort."""
    t = _load_term(source, expr, _signature(untyped, consts))
    _emit({"printed": print_term(t), "sort": render_sort(t.sort), "term": term_to_json(t)})


@main.command("typecheck")
@_with(_term_input + _sig_opts)
def typecheck_cmd(source, expr, untyped, consts) -> None:
    """Check a term against a signature and report its sort."""
    sig = _signature(untyped, consts)
    t = _load_term(source, expr, sig)
    _emit({"sort": render_sort(typecheck(t, sig))})


@main.command("normalize")
@_with(_term_input + _sig_opts)
@click.option("--fuel", type=int, default=None, help="Reduction step budget.")
def normalize_cmd(source, expr, untyped, consts, fuel) -> None:
    """Beta-normalize and eta-expand a term."""
    t = _load_term(source, expr, _signature(untyped, consts))
    nf = normalize(t, fuel=fuel)
    _emit(
        {
            "printed": print_term(nf.term),
            "depth": nf_depth(nf.term),
            "term": term_to_json(nf.term),
        }
    )


@main.command("reduce-cl")
@_with(_term_input + _sig_opts)
@click.option("--fuel", type=int, default=None, help="Reduction step budget.")
def reduce_cl_cmd(source, expr, untyped, consts, fuel) -> None:
    """Reduce a combinator term, reporting the full trace."""
    t = _load_term(source, expr, _signature(untyped, consts))
    red = cl_reduce(t, fuel=fuel)
    _emit(
        {
            "start": print_term(red.start),
            "result": print_term(red.result),
            "step_count": red.step_count,
            "out_of_fuel": red.out_of_fuel,
            "steps": [
                {
                    "path": list(s.path),
                    "rule": s.rule,
                    "redex": print_term(s.redex),
                    "contractum": print_term(s.contractum),
                }
                for s in red.steps
            ],
        }
    )


@main.command("bracket")
@_with(_term_input + _sig_opts)
@click.option("--var", "var_spec", required=True, metavar="NAME[:SORT]")
def bracket_cmd(source, expr, untyped, consts, var_spec) -> None:
    """Bracket-abstract a variable out of a combinator term."""
    sig = _signature(untyped, consts)
    t = _load_term(source, expr, sig)
    name, _, sort_text = var_spec.partition(":")
    if sort_text:
        sort = parse_sort(sort_text)
    elif untyped:
        sort = STAR
    else:
        sort = free_vars(t).get(name)
        if sort is None:
            raise click.UsageError(f"--var {name} needs a sort annotation")
    out = bracket_abstract(Var(name, sort), t)
    _emit({"printed": print_term(out), "term": term_to_json(out)})


@main.command("project")
@_with(_term_input + _sig_opts)
@click.option("--level", type=int, required=True)
def project_cmd(source, expr, untyped, consts, level) -> None:
    """Cut a normal form at the given depth."""
    t = normalize(_load_term(source, expr, _signature(untyped, consts)))
    p = project(t, level)
    _emit({"printed": print_term(p.term), "term": term_to_json(p.term)})


@main.command("dist")
@click.option(
    "--metric",
    type=click.Choice(["e", "dnf", "order", "fth"]),
    default="e",
    show_default=True,
)
@click.argument("left", metavar="TERM")
@click.argument("right", metavar="TERM")
@click.option("--expr", is_flag=True, help="Terms are inline syntax, not JSON files.")
@_with(_sig_opts)
@click.option("--witness-budget", type=int, default=12, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
def dist_cmd(metric, left, right, expr, untyped, consts, witness_budget, n_max) -> None:
    """Distance between two normal forms under the chosen metric."""
    sig = _signature(untyped, consts)
    t = normalize(_load_term(left, expr, sig))
    s = normalize(_load_term(right, expr, sig))
    if metric == "e":
        _emit({"value": e_distance(t, s).render()})
    elif metric == "dnf":
        cert = dnf_distance(t, s, witness_budget=witness_budget, constants=sig.constants)
        _emit(cert.to_json())
    elif metric == "order":
        value, result = order_distance(t, s)
        out = {"value": value.render()}
        out.update(result.to_json())
        _emit(out)
    else:
        value, status = fth_distance(t, s, n_max=n_max)
        _emit({"value": value.render(), "status": status})


def _load_map(path: str, dom: FiniteMetricSpace, cod: FiniteMetricSpace) -> PointMap:
    table = _read_json(path)
    if not isinstance(table, list):
        raise click.UsageError(f"{path} must hold a JSON list of codomain points")
    if len(table) != dom.size:
        raise StructuralError("map table length does not match domain size")
    return PointMap(dom, cod, tuple(map(cod.index, table)))


@main.command("hom-dist")
@click.option(
    "--kind",
    type=click.Choice(["phi", "xi", "xi_prime", "theta"]),
    required=True,
)
@click.argument("domain_file")
@click.argument("codomain_file")
@click.argument("f_file")
@click.argument("g_file")
def hom_dist_cmd(kind, domain_file, codomain_file, f_file, g_file) -> None:
    """Distance between two non-expansive maps between finite spaces."""
    a = _load_space(domain_file)
    b = _load_space(codomain_file)
    f = _load_map(f_file, a, b)
    g = _load_map(g_file, a, b)
    _emit({"value": hom_distance(kind, a, b, f, g).render()})


@main.command("classify")
@click.argument("space_file")
def classify_cmd(space_file) -> None:
    """Report which distance laws a finite space satisfies."""
    _emit(classify_space(_load_space(space_file)).to_json())


@main.command("exp-check")
@click.argument("space_file")
@click.option(
    "--mode",
    type=click.Choice(["full", "image_restricted"]),
    default="full",
    show_default=True,
)
def exp_check_cmd(space_file, mode) -> None:
    """Check the midpoint condition for exponentiability."""
    _emit(check_exponentiable(_load_space(space_file), mode).to_json())


@main.command("build-fts")
@click.argument("base_file")
@click.option("--sort", "sorts", multiple=True, required=True, metavar="SORT")
@click.option("--size-budget", type=int, default=10**6, show_default=True)
def build_fts_cmd(base_file, sorts, size_budget) -> None:
    """Build the full type structure over a finite base space."""
    base = _load_space(base_file)
    alg = build_full_type_structure(
        base, [parse_sort(s) for s in sorts], size_budget=size_budget
    )
    _emit(alg.to_json())


@main.command("build-grid")
@click.option(
    "--interval",
    "intervals",
    multiple=True,
    required=True,
    metavar="LO:HI:STEP",
    help="One base interval sort per flag, in declaration order.",
)
def build_grid_cmd(intervals) -> None:
    """Build a grid algebra over rational interval sorts."""
    parsed = []
    for spec in intervals:
        parts = spec.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"--interval needs LO:HI:STEP, got {spec!r}")
        try:
            parsed.append(tuple(Fraction(p) for p in parts))
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"--interval needs rational LO:HI:STEP, got {spec!r}") from None
    alg = build_grid_algebra(parsed, {})
    _emit(alg.to_json())


def _load_theory(spec: str) -> Theory:
    """A corpus theory by name, else the theory JSON file at spec."""
    theories = _corpus.corpus_theories()
    if spec in theories:
        return theories[spec]
    if not os.path.isfile(spec):
        raise click.UsageError(
            f"--theory takes a corpus theory ({', '.join(theories)}) "
            f"or a theory JSON file, got {spec!r}"
        )
    return Theory.from_json(_read_json(spec))


@main.command("check-proof")
@click.argument("proof_file")
@click.option(
    "--theory",
    "theory_spec",
    required=True,
    metavar="NAME|FILE",
    help="A corpus theory name, or else a theory JSON file.",
)
def check_proof_cmd(proof_file, theory_spec) -> None:
    """Validate a derivation tree against a corpus theory or a theory file."""
    th = _load_theory(theory_spec)
    result = check_derivation(derivation_from_json(_read_json(proof_file)), th)
    _emit(result.to_json())
    if not result.ok:
        sys.exit(1)


@main.command("model-check")
@click.argument("inference_file")
@click.option(
    "--algebra",
    "algebra_name",
    required=True,
    type=click.Choice(sorted(_corpus.ALGEBRAS)),
)
def model_check_cmd(inference_file, algebra_name) -> None:
    """Check an inference in one of the shipped finite algebras."""
    inf = Inference.from_json(_read_json(inference_file))
    alg = _corpus.ALGEBRAS[algebra_name]()
    _emit(satisfies_inference(alg, inf).to_json())


@main.command("harness")
def harness_cmd() -> None:
    """Run the soundness harness over the shipped corpus (JSON lines)."""
    violated = 0
    for th, derivs, algs in _corpus.harness_corpus():
        for record in soundness_harness(th, derivs, algs):
            click.echo(json.dumps(record, sort_keys=True))
            violated += record["status"] == "violated"
    if violated:
        sys.exit(1)


# ---------------------------------------------------------------------------
# Repro scenarios


def _remark25_payload() -> dict:
    terms = _corpus.remark25_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    consts = _corpus.REMARK25_CONSTANTS
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    space = _corpus.remark25_space()
    return {
        "d_ts": dnf_distance(t, s, constants=consts).to_json(),
        "d_ut_us": dnf_distance(ut, us, constants=consts).to_json(),
        "d_uu": dnf_distance(u, u, constants=consts).to_json(),
        "classification": classify_space(space).to_json(),
    }


def _remark27_payload() -> dict:
    terms = _corpus.remark27_terms()
    t, s, u = terms["t"], terms["s"], terms["u"]
    ut = normalize(App(u.term, t.term))
    us = normalize(App(u.term, s.term))
    return {
        "e_ts": e_distance(t, s).render(),
        "e_ut_us": e_distance(ut, us).render(),
    }


def _example15_payload() -> dict:
    alg = _corpus.ALGEBRAS["ex15"]()
    f = Const("f", _corpus.FG)
    g = Const("g", _corpus.FG)
    x = Var("x", _corpus.I01)
    eps = Fraction(1, 4)
    pointwise = max(
        abs(p - (p + eps)) for p in [Fraction(k, 8) for k in range(9)]
    )
    arrow_dist = alg.dist(
        _corpus.FG, alg.symbol("f", _corpus.FG), alg.symbol("g", _corpus.FG)
    )
    lam_f = Lam("x", _corpus.I01, App(f, Bound(0, _corpus.I01)))
    lam_g = Lam("x", _corpus.I01, App(g, Bound(0, _corpus.I01)))
    hyp = QuantEquation(App(f, x), App(g, x), eps, _corpus.I054, frozenset({x}))
    concl = QuantEquation(lam_f, lam_g, eps, lam_f.sort)
    sat_report = satisfies_inference(alg, Inference(frozenset(), concl))
    star_report = satisfies_inference(alg, Inference(frozenset(), hyp))
    return {
        "pointwise_max": str(pointwise),
        "arrow_xi_distance": arrow_dist.render(),
        "sat": sat_report.to_json(),
        "sat_star": star_report.to_json(),
    }


def _theta_xi_payload() -> dict:
    a, b, f, g = _corpus.theta_xi_maps()
    theta = hom_distance("theta", a, b, f, g)
    xi = hom_distance("xi", a, b, f, g)
    # xi <= sqrt(2)/2 + 1/8, exactly: gap <= 0, or 2 gap^2 <= 1
    gap = xi.value - Fraction(1, 8)
    return {
        "theta": theta.render(),
        "xi": xi.render(),
        "xi_bound": "sqrt(2)/2 + 1/8",
        "xi_within_bound": gap <= 0 or 2 * gap * gap <= 1,
    }


def _fth_church_payload() -> dict:
    c2, c4 = _corpus.church(2), _corpus.church(4)
    value, status = fth_distance(c2, c4, n_max=3)
    return {"value": value.render(), "status": status}


def _nat_payload() -> dict:
    nat = FiniteMetricSpace.line_grid(Fraction(0), Fraction(4), Fraction(1))
    full = check_exponentiable(nat, "full")
    image = check_exponentiable(nat, "image_restricted")
    return {"full": full.to_json(), "image_restricted": image.to_json()}


SCENARIOS = {
    "remark25": _remark25_payload,
    "remark27": _remark27_payload,
    "example15": _example15_payload,
    "remark-theta-xi": _theta_xi_payload,
    "fth-church": _fth_church_payload,
    "nat-not-exponentiable": _nat_payload,
}


def _golden_text(name: str) -> Optional[str]:
    ref = resources.files("qlam").joinpath("golden", f"{name}.json")
    if not ref.is_file():
        return None
    return ref.read_text(encoding="utf-8")


@main.command("repro")
@click.argument("name", type=click.Choice(sorted(SCENARIOS)))
def repro_cmd(name) -> None:
    """Run a named scenario and diff against its golden file."""
    payload = _dumps(SCENARIOS[name]())
    golden = _golden_text(name)
    if golden is not None and golden.strip() == payload.strip():
        click.echo(_dumps({"scenario": name, "status": "PASS"}))
        return
    click.echo(
        _dumps(
            {
                "scenario": name,
                "status": "FAIL" if golden is not None else "MISSING_GOLDEN",
                "got": json.loads(payload),
                "expected": json.loads(golden) if golden is not None else None,
            }
        )
    )
    sys.exit(1)


if __name__ == "__main__":
    main()
