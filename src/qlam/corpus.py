"""Shipped corpus: the worked example terms and spaces, a derivation
suite spanning every checkable rule, and the finite algebras used by the
soundness harness and the reproduction scenarios.

Everything here is deterministic; builders return fresh values.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Callable

from .metric_core import FiniteMetricSpace, PointMap
from .finite_models import (
    FiniteQuantAlgebra,
    build_full_type_structure,
    build_grid_algebra,
)
from .quant_deduction import (
    Derivation,
    Inference,
    QuantEquation,
    Theory,
    builtin_theory,
    d_axiom,
    d_cut,
    d_refl,
    d_subst,
    derive_cl_reduction,
    derive_equal_reducts,
    interval_constant_name,
)
from .rewrite_engine import NormalForm, bracket_abstract, cl_reduce, normalize, shift
from .term_syntax import (
    App,
    BaseSort,
    Bound,
    Const,
    IntervalSort,
    Lam,
    STAR,
    Signature,
    Sort,
    Term,
    Var,
    app,
    arrow,
    bind,
    combinator_sort,
    substitute,
)

__all__ = [
    "O",
    "OO",
    "remark25_terms",
    "remark27_terms",
    "church",
    "theta_xi_maps",
    "shift_maps",
    "ALGEBRAS",
    "corpus_algebras",
    "corpus_theories",
    "corpus_derivations",
    "harness_corpus",
]

O = BaseSort("o")
OO = arrow(O, O)
S1 = arrow(OO, O)  # (o->o)->o
I01 = IntervalSort(F(0), F(1))
I054 = IntervalSort(F(0), F(5, 4))
FF = arrow(I01, I01)
FG = arrow(I01, I054)

REMARK25_CONSTANTS = {"c1": O, "c2": O}


# ---------------------------------------------------------------------------
# Worked example terms


def remark25_terms() -> dict[str, NormalForm]:
    """t = \\x.x(x c1), s = \\x.x(x c2) at (o->o)->o, and u = \\x.x I."""
    x = Var("x", OO)
    t = normalize(bind("x", OO, App(x, App(x, Const("c1", O)))))
    s = normalize(bind("x", OO, App(x, App(x, Const("c2", O)))))
    identity = bind("w", O, Var("w", O))
    xu = Var("x", S1)
    u = normalize(bind("x", S1, App(xu, identity)))
    return {"t": t, "s": s, "u": u}


def remark27_terms() -> dict[str, NormalForm]:
    """t = \\x1 x2. x1(x2 y), s with z; u = \\x. x I I."""
    x1, x2 = Var("x1", OO), Var("x2", OO)
    t = normalize(bind("x1", OO, bind("x2", OO, App(x1, App(x2, Var("y", O))))))
    s = normalize(bind("x1", OO, bind("x2", OO, App(x1, App(x2, Var("z", O))))))
    identity = bind("w", O, Var("w", O))
    usort = arrow(OO, arrow(OO, O))
    xv = Var("x", usort)
    u = normalize(bind("x", usort, App(App(xv, identity), identity)))
    return {"t": t, "s": s, "u": u}


def church(n: int) -> NormalForm:
    f, x = Var("f", OO), Var("x", O)
    body: Term = x
    for _ in range(n):
        body = App(f, body)
    return normalize(bind("f", OO, bind("x", O, body)))


# ---------------------------------------------------------------------------
# Spaces and hom-distance pairs


def shift_maps(m: F, k: F, step: F) -> tuple[FiniteMetricSpace, FiniteMetricSpace, PointMap, PointMap]:
    """Identity vs shift-by-k from the [0,m] grid into the [0,m+k] grid."""
    a = FiniteMetricSpace.line_grid(F(0), F(m), step)
    b = FiniteMetricSpace.line_grid(F(0), F(m) + F(k), step)
    s = int(F(k) / F(step))  # whole: both grids end on a step
    f = PointMap(a, b, tuple(range(a.size)))
    g = PointMap(a, b, tuple(range(s, s + a.size)))
    return a, b, f, g


def theta_xi_maps() -> tuple[FiniteMetricSpace, FiniteMetricSpace, PointMap, PointMap]:
    """f = id and g = x for x <= 0, x/2 for x > 0, on the [-1,1] grid."""
    a = FiniteMetricSpace.line_grid(F(-1), F(1), F(1, 8))
    b = FiniteMetricSpace.line_grid(F(-1), F(1), F(1, 16))
    # a's point i is -1 + i/8, b's point j is -1 + j/16: x = -1 + i/8 is
    # b's point 2i, and x/2 for x > 0 (i > 8) is b's point i + 8
    f = PointMap(a, b, tuple(2 * i for i in range(a.size)))
    g = PointMap(a, b, tuple(2 * i if i <= 8 else i + 8 for i in range(a.size)))
    return a, b, f, g


def remark25_space() -> FiniteMetricSpace:
    """The 3-point space induced by the normal-form distances."""
    return FiniteMetricSpace(
        ["t", "s", "u"],
        [
            [0, F(1, 2), 1],
            [F(1, 2), 0, 1],
            [1, 1, 1],
        ],
    )


# ---------------------------------------------------------------------------
# Signatures and theories

CL_TRIPLES = ((O, O, O), (O, OO, O), (OO, O, O))

GRID_VALUES = tuple(F(k, 8) for k in range(9))


def _interval_constants() -> dict[str, F]:
    return {interval_constant_name(v): v for v in GRID_VALUES}


def _grid_signature() -> Signature:
    constants: dict[str, Sort] = {"idf": FF, "m": FF}
    constants.update({n: I01 for n in _interval_constants()})
    return Signature(untyped=False, constants=constants, combinators=False)


def corpus_theories() -> dict[str, Theory]:
    cl_sig = Signature(untyped=False, combinator_sorts=CL_TRIPLES)
    values = _interval_constants()
    tables = {
        "idf": {(v,): v for v in GRID_VALUES},
        "m": {(v,): min(v, F(1, 2)) for v in GRID_VALUES},
    }
    return {
        "U_CL": builtin_theory("U_CL", cl_sig),
        "U_CL_untyped": builtin_theory("U_CL", Signature(untyped=True)),
        "U_CL_interval": builtin_theory(
            "U_CL_interval", _grid_signature(), interval_values=values, tables=tables
        ),
        "U_lambda_interval": builtin_theory(
            "U_lambda_interval", _grid_signature(), interval_values=values, tables=tables
        ),
        "U_lambda_eta_interval": builtin_theory(
            "U_lambda_eta_interval",
            _grid_signature(),
            interval_values=values,
            tables=tables,
        ),
        "U_CL_partial": builtin_theory(
            "U_CL", Signature(untyped=False, combinators=False), partial=True
        ),
    }


# ---------------------------------------------------------------------------
# Algebras


_FTS_SORTS = (OO, arrow(O, OO), arrow(OO, O), arrow(O, arrow(OO, O)), arrow(OO, OO))


def _fts(name: str, base: FiniteMetricSpace, sorts=_FTS_SORTS) -> FiniteQuantAlgebra:
    cl_sig = Signature(untyped=False, combinator_sorts=CL_TRIPLES)
    return build_full_type_structure(base, sorts, signature=cl_sig, name=name)


def _grid8() -> FiniteQuantAlgebra:
    grid_constants: dict[str, tuple[Sort, object]] = {
        "idf": (FF, lambda p: p),
        "m": (FF, lambda p: min(p, F(1, 2))),
    }
    for name, value in _interval_constants().items():
        grid_constants[name] = (I01, value)
    return build_grid_algebra(
        [(F(0), F(1), F(1, 8))], grid_constants, signature=_grid_signature(), name="grid8"
    )


def _ex15() -> FiniteQuantAlgebra:
    return build_grid_algebra(
        [(F(0), F(1), F(1, 8)), (F(0), F(5, 4), F(1, 8))],
        {"f": (FG, lambda p: p), "g": (FG, lambda p: p + F(1, 4))},
        name="ex15",
    )


# The shipped finite algebras by name; each call builds a fresh one.
ALGEBRAS: dict[str, Callable[[], FiniteQuantAlgebra]] = {
    "fts1": lambda: _fts("fts1", FiniteMetricSpace(["p"], [[0]])),
    "fts2": lambda: _fts("fts2", FiniteMetricSpace(["p", "q"], [[0, 1], [1, 0]])),
    "fts3": lambda: _fts(
        "fts3", FiniteMetricSpace.line_grid(F(0), F(1), F(1, 2)), _FTS_SORTS[:2]
    ),
    "grid8": _grid8,
    "ex15": _ex15,
    "partial3": lambda: FiniteQuantAlgebra(
        "partial3", Signature(untyped=False, combinators=False), {O: remark25_space()}
    ),
}


def corpus_algebras() -> dict[str, FiniteQuantAlgebra]:
    return {name: build() for name, build in ALGEBRAS.items()}


# ---------------------------------------------------------------------------
# Derivations


def _eq(l: Term, r: Term, eps, X: frozenset = frozenset()) -> QuantEquation:
    return QuantEquation(l, r, F(eps), l.sort, X)


def _leaf(rule: str, hyps, eq, **params) -> Derivation:
    return Derivation(rule, Inference(frozenset(hyps), eq), params=params)


def _weaken(premise: Derivation, hyps: frozenset) -> Derivation:
    return Derivation("Cut", Inference(hyps, premise.conclusion.conclusion), (premise,))


def _skk_term() -> Term:
    return app(
        Const("S", combinator_sort("S", O, OO, O)),
        Const("K", combinator_sort("K", O, OO)),
        Const("K", combinator_sort("K", O, O)),
        Var("x", O),
    )


def _cl_derivations(th: Theory) -> list[tuple[str, Derivation]]:
    x, y, z = Var("x", O), Var("y", O), Var("z", O)
    f, f2 = Var("f", OO), Var("g", OO)
    out: list[tuple[str, Derivation]] = []

    out.append(("refl_var", d_refl(x)))
    refl = d_refl(x)
    out.append(
        (
            "refl_then_max",
            d_cut([refl], _leaf("Max", {refl.conclusion.conclusion}, _eq(x, x, F(1, 2)))),
        )
    )
    hyp = _eq(x, y, F(1, 4))
    out.append(("assumpt", _leaf("Assumpt", {hyp}, hyp)))
    out.append(("symm", _leaf("Symm", {hyp}, _eq(y, x, F(1, 4)))))
    out.append(
        (
            "triang",
            _leaf("Triang", {_eq(x, y, F(1, 4)), _eq(y, z, F(1, 4))}, _eq(x, z, F(1, 2))),
        )
    )
    out.append(("max", _leaf("Max", {hyp}, _eq(x, y, F(3, 4)))))
    out.append(
        (
            "nexp_app",
            _leaf(
                "NExp",
                {_eq(f, f2, F(1, 2)), _eq(x, y, F(1, 2))},
                _eq(App(f, x), App(f2, y), F(1, 2)),
            ),
        )
    )
    k_oo = Const("K", combinator_sort("K", O, O))
    out.append(("nexp_const", _leaf("NExp", (), _eq(k_oo, k_oo, F(1, 4)))))

    ax_i = next(a for a in th.axioms if isinstance(a.conclusion.left.fn, Const) and a.conclusion.left.fn.name == "I")
    out.append(("axiom_I", d_axiom(ax_i)))
    out.append(("subst_I", d_subst(d_axiom(ax_i), {"x": app(k_oo, y, z)})))

    red = cl_reduce(_skk_term())
    out.append(("skk_reduction", derive_cl_reduction(red, th)))

    i_o = Const("I", combinator_sort("I", O))
    red2 = cl_reduce(App(i_o, App(i_o, x)))
    out.append(("double_I", derive_cl_reduction(red2, th)))

    red3 = cl_reduce(App(f, App(i_o, x)))
    out.append(("nexp_under_arg", derive_cl_reduction(red3, th)))

    h = Var("h", OO)
    t = App(h, x)
    lam = bracket_abstract(Var("x", O), t)
    r1 = cl_reduce(App(lam, y))
    r2 = cl_reduce(substitute(t, {"x": y}))
    out.append(("bracket_sim", derive_equal_reducts(r1, r2, th)))
    return out


def _interval_derivations(th: Theory) -> list[tuple[str, Derivation]]:
    k = {name: Const(name, I01) for name in _interval_constants()}
    m = Const("m", FF)
    x, y = Var("x", I01), Var("y", I01)
    out: list[tuple[str, Derivation]] = []

    ax_close = _leaf("Axiom", (), _eq(k["k0"], k["k1_2"], F(1, 2)))
    out.append(("interval_axiom", ax_close))
    out.append(("interval_axiom_slack", _leaf("Axiom", (), _eq(k["k1_4"], k["k1_2"], F(1)))))
    out.append(("table_axiom", _leaf("Axiom", (), _eq(App(m, k["k1"]), k["k1_2"], F(0)))))
    out.append(("interval_symm", d_cut([ax_close], _leaf("Symm", {ax_close.conclusion.conclusion}, _eq(k["k1_2"], k["k0"], F(1, 2))))))

    a1 = _leaf("Axiom", (), _eq(k["k0"], k["k1_4"], F(1, 4)))
    a2 = _leaf("Axiom", (), _eq(k["k1_4"], k["k1_2"], F(1, 4)))
    tri = _leaf(
        "Triang",
        {a1.conclusion.conclusion, a2.conclusion.conclusion},
        _eq(k["k0"], k["k1_2"], F(1, 2)),
    )
    out.append(("interval_triang", d_cut([a1, a2], tri)))

    hyp = _eq(x, y, F(1, 8))
    m_refl = _leaf("NExp", (), _eq(m, m, F(1, 8)))
    nexp = _leaf(
        "NExp",
        {_eq(m, m, F(1, 8)), hyp},
        _eq(App(m, x), App(m, y), F(1, 8)),
    )
    m_mono = d_cut(
        [_weaken(m_refl, frozenset({hyp})), _leaf("Assumpt", {hyp}, hyp)], nexp
    )
    out.append(("nexp_fn_const", m_mono))

    inst = d_subst(m_mono, {"x": k["k0"], "y": k["k1_8"]})
    out.append(("subst_fn_const", inst))
    close = _leaf("Axiom", (), _eq(k["k0"], k["k1_8"], F(1, 8)))
    out.append(("cut_discharge", d_cut([close], inst)))
    return out


def _lambda_derivations(th: Theory, eta: bool) -> list[tuple[str, Derivation]]:
    idf = Const("idf", FF)
    m = Const("m", FF)
    k = {name: Const(name, I01) for name in _interval_constants()}
    x = Var("x", I01)
    X = frozenset({x})
    out: list[tuple[str, Derivation]] = []

    lam_idf = Lam("x", I01, App(idf, Bound(0, I01)))
    lam_m = Lam("x", I01, App(m, Bound(0, I01)))

    beta_eq = _eq(App(lam_idf, k["k0"]), App(idf, k["k0"]), F(0))
    out.append(("beta", _leaf("Beta", (), beta_eq)))
    out.append(("alpha", _leaf("Alpha", (), _eq(lam_idf, lam_idf, F(0)))))

    hyp = _eq(App(idf, x), App(m, x), F(1, 2), X)
    xi = _leaf("Xi", {hyp}, _eq(lam_idf, lam_m, F(1, 2), X), var="x")
    out.append(("xi_half", xi))

    conc = _leaf(
        "Concretion",
        {xi.conclusion.conclusion},
        _eq(lam_idf, lam_m, F(1, 2)),
    )
    out.append(("xi_then_concretion", d_cut([xi], conc)))

    base = _eq(k["k0"], k["k1_2"], F(1, 2))
    out.append(("abstraction", _leaf("Abstraction", {base}, _eq(k["k0"], k["k1_2"], F(1, 2), X))))
    out.append(("concretion", _leaf("Concretion", {_eq(k["k0"], k["k1_2"], F(1, 2), X)}, base)))
    out.append(("refl_quantified", d_refl(App(idf, x), X)))

    hyp2 = _eq(Var("y", I01), Var("z", I01), F(1, 4), X)
    subst = d_subst(_leaf("Assumpt", {hyp2}, hyp2), {"y": k["k0"]})
    out.append(("subst_lambda", subst))

    if eta:
        eta_eq = _eq(idf, Lam("x", I01, App(shift(idf, 1), Bound(0, I01))), F(0))
        eta_leaf = _leaf("Eta", (), eta_eq)
        out.append(("eta", eta_leaf))
        flipped = _eq(eta_eq.right, eta_eq.left, F(0))
        out.append(
            ("eta_symm", d_cut([eta_leaf], _leaf("Symm", {eta_eq}, flipped)))
        )
    return out


def _partial_derivations(th: Theory) -> list[tuple[str, Derivation]]:
    x, y = Var("x", O), Var("y", O)
    hyp = _eq(x, y, F(1, 2))
    return [
        ("prefl", _leaf("PRefl", {hyp}, _eq(x, x, F(1, 2)))),
        ("assumpt_partial", _leaf("Assumpt", {hyp}, hyp)),
        ("symm_partial", _leaf("Symm", {hyp}, _eq(y, x, F(1, 2)))),
    ]


def _untyped_derivations(th: Theory) -> list[tuple[str, Derivation]]:
    x, y = Var("x", STAR), Var("y", STAR)
    h = Var("h", STAR)
    t = App(App(h, x), App(x, y))
    lam = bracket_abstract(Var("x", STAR), t)
    u = Var("u", STAR)
    r1 = cl_reduce(App(lam, u))
    r2 = cl_reduce(substitute(t, {"x": u}))
    out = [("bracket_sim_untyped", derive_equal_reducts(r1, r2, th))]
    skk = app(Const("S", STAR), Const("K", STAR), Const("K", STAR), x)
    out.append(("skk_untyped", derive_cl_reduction(cl_reduce(skk), th)))
    return out


def corpus_derivations() -> dict[str, list[tuple[str, Derivation]]]:
    ths = corpus_theories()
    return {
        "U_CL": _cl_derivations(ths["U_CL"]),
        "U_CL_untyped": _untyped_derivations(ths["U_CL_untyped"]),
        "U_CL_interval": _interval_derivations(ths["U_CL_interval"]),
        "U_lambda_interval": _lambda_derivations(ths["U_lambda_interval"], eta=False),
        "U_lambda_eta_interval": _lambda_derivations(
            ths["U_lambda_eta_interval"], eta=True
        ),
        "U_CL_partial": _partial_derivations(ths["U_CL_partial"]),
    }


def harness_corpus() -> list[tuple[Theory, list[tuple[str, Derivation]], list[tuple[str, FiniteQuantAlgebra]]]]:
    """The (theory, derivations, algebras) triples the harness runs.

    Untyped derivations are exercised by the checker tests only; finite
    models of the untyped calculus are out of scope.
    """
    ths = corpus_theories()
    algs = corpus_algebras()
    derivs = corpus_derivations()
    fts = [("fts1", algs["fts1"]), ("fts2", algs["fts2"]), ("fts3", algs["fts3"])]
    grid = [("grid8", algs["grid8"])]
    partial = [("partial3", algs["partial3"])]
    return [
        (ths["U_CL"], derivs["U_CL"], fts),
        (ths["U_CL_interval"], derivs["U_CL_interval"], grid),
        (ths["U_lambda_interval"], derivs["U_lambda_interval"], grid),
        (ths["U_lambda_eta_interval"], derivs["U_lambda_eta_interval"], grid),
        (ths["U_CL_partial"], derivs["U_CL_partial"], partial),
    ]
