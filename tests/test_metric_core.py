from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlam.errors import PreconditionError, StructuralError
from qlam.metric_core import (
    ExtReal,
    FiniteMetricSpace,
    INF,
    PointMap,
    ZERO,
    check_exponentiable,
    classify_space,
    enumerate_nonexpansive,
    hom_distance,
    product_space,
    star_completion,
)


def grid(lo, hi, step):
    return FiniteMetricSpace.line_grid(F(lo), F(hi), F(step))


def xi_oracle(a, b, f, g):
    """Least delta with b(f(x), g(y)) <= max(a(x, y), delta) everywhere."""
    fi, gi = f._indices(), g._indices()
    candidates = sorted({ZERO} | b.values())
    for delta in candidates:
        if all(
            b.d(fi[x], gi[y]) <= max(a.d(x, y), delta)
            for x in range(a.size)
            for y in range(a.size)
        ):
            return delta
    return INF


# ---------------------------------------------------------------------------
# ExtReal


def test_extreal_arith_and_render():
    assert ExtReal(F(1, 2)) + ExtReal(F(1, 4)) == ExtReal(F(3, 4))
    assert (ExtReal(F(1)) + INF).is_infinite
    assert INF.render() == "inf"
    assert ExtReal("3/4") == ExtReal(F(3, 4))
    assert ExtReal(F(1, 2)) < INF
    with pytest.raises(StructuralError):
        ExtReal(F(-1))


def test_line_grid_keeps_both_ends():
    assert grid(0, 1, "1/4").points == ("0", "1/4", "1/2", "3/4", "1")
    assert grid(-1, -1, 1).points == ("-1",)


@pytest.mark.parametrize("lo, hi, step", [(0, 1, "2/3"), (0, 1, 0), (0, 1, "-1/2"), (1, 0, 1)])
def test_line_grid_rejects_bad_grids(lo, hi, step):
    with pytest.raises(StructuralError):
        grid(lo, hi, step)


def test_space_json_roundtrip():
    s = grid(0, 1, "1/4")
    again = FiniteMetricSpace.from_json(s.to_json())
    assert again == s


# ---------------------------------------------------------------------------
# Classification


def brute_classify(space):
    n = space.size
    d = space.d
    laws = {
        "refl": all(d(i, i) == ZERO for i in range(n)),
        "symm": all(d(i, j) == d(j, i) for i in range(n) for j in range(n)),
        "trans": all(
            d(i, j) <= d(i, k) + d(k, j)
            for i in range(n)
            for k in range(n)
            for j in range(n)
        ),
        "trans_star": all(
            not (d(i, j) > d(i, k) and d(i, j) > d(k, j))
            for i in range(n)
            for k in range(n)
            for j in range(n)
        ),
        "refl_star": all(
            d(i, i) <= min(d(i, j) for j in range(n)) for i in range(n)
        ),
    }
    return laws


SPACES = {
    "grid": grid(0, 1, "1/2"),
    "discrete": FiniteMetricSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]]),
    "partial": FiniteMetricSpace.from_matrix(
        ["t", "s", "u"],
        [[0, F(1, 2), 1], [F(1, 2), 0, 1], [1, 1, 1]],
    ),
    "asym": FiniteMetricSpace.from_matrix(["a", "b"], [[0, 1], [F(1, 2), 0]]),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_classify_matches_brute_laws(name):
    space = SPACES[name]
    laws = brute_classify(space)
    cls = classify_space(space)
    assert cls.premetric == (laws["refl"] and laws["symm"])
    assert cls.metric == (laws["refl"] and laws["symm"] and laws["trans"])
    assert cls.ultrametric == (laws["refl"] and laws["symm"] and laws["trans_star"])
    assert cls.partial_ultrametric == (
        laws["symm"] and laws["trans_star"] and laws["refl_star"]
    )


def test_partial_space_classes():
    cls = classify_space(SPACES["partial"])
    assert cls.partial_ultrametric and not cls.metric and not cls.premetric


def test_star_completion_zeroes_diagonal():
    star = star_completion(SPACES["partial"])
    assert all(star.d(i, i) == ZERO for i in range(star.size))
    assert star.d(0, 1) == ExtReal(F(1, 2))
    assert classify_space(star).ultrametric
    with pytest.raises(PreconditionError):
        star_completion(SPACES["asym"])


def test_product_space_is_pointwise_max():
    p = product_space(SPACES["discrete"], SPACES["grid"])
    assert p.size == 6
    assert p.d_name("(a,0)", "(b,1/2)") == ExtReal(F(1))
    assert p.d_name("(a,0)", "(a,1/2)") == ExtReal(F(1, 2))


# ---------------------------------------------------------------------------
# Hom distances


def maps_on(a, b, fn_f, fn_g):
    f = PointMap.from_function(a, b, lambda p: str(fn_f(F(p))))
    g = PointMap.from_function(a, b, lambda p: str(fn_g(F(p))))
    return f, g


def test_phi_of_shift_is_shift():
    a = grid(0, 2, "1/4")
    b = grid(0, 3, "1/4")
    f, g = maps_on(a, b, lambda p: p, lambda p: p + 1)
    assert hom_distance("phi", a, b, f, g) == ExtReal(F(1))


def test_xi_matches_delta_scan_oracle():
    a = grid(0, 2, "1/4")
    b = grid(0, 3, "1/4")
    cases = [
        (lambda p: p, lambda p: p + 1),
        (lambda p: p, lambda p: F(2) - p),
        (lambda p: min(p, 1), lambda p: p),
        (lambda p: p, lambda p: p),
        (lambda p: F(0), lambda p: min(p, F(1, 2))),
    ]
    for fn_f, fn_g in cases:
        f, g = maps_on(a, b, fn_f, fn_g)
        assert hom_distance("xi", a, b, f, g) == xi_oracle(a, b, f, g)


def test_xi_prime_threshold_oracle():
    a = grid(0, 1, "1/4")
    b = grid(0, 2, "1/4")
    f, g = maps_on(a, b, lambda p: p, lambda p: p + F(1, 2))
    got = hom_distance("xi_prime", a, b, f, g)
    fi, gi = f._indices(), g._indices()
    best = None
    for delta in sorted({ZERO} | b.values()):
        if all(
            b.d(fi[x], gi[y]) <= delta
            for x in range(a.size)
            for y in range(a.size)
            if a.d(x, y) <= delta
        ):
            best = delta
            break
    assert got == best


def test_theta_zero_only_on_equal_tables():
    a = grid(0, 1, "1/2")
    f, g = maps_on(a, a, lambda p: p, lambda p: p)
    assert hom_distance("theta", a, a, f, g) == ZERO
    f, g = maps_on(a, a, lambda p: p, lambda p: min(p, F(1, 2)))
    assert hom_distance("theta", a, a, f, g) == ExtReal(F(1))


def test_hom_distance_rejects_expansive_maps():
    a = grid(0, 1, "1/2")
    b = grid(0, 2, "1/2")
    f = PointMap.from_function(a, b, lambda p: str(F(p) * 2))
    with pytest.raises(PreconditionError):
        hom_distance("phi", a, b, f, f)


@st.composite
def ultrametric_space(draw):
    n = draw(st.integers(2, 5))
    labels = [
        tuple(draw(st.integers(0, 1)) for _ in range(3)) for _ in range(n)
    ]
    def dist(u, v):
        for k in range(3):
            if u[k] != v[k]:
                return ExtReal(F(1, 2**k))
        return ZERO
    points = [f"p{i}" for i in range(n)]
    rows = [[dist(labels[i], labels[j]) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(tuple(points), tuple(tuple(r) for r in rows))


@st.composite
def metric_subgrid(draw):
    picks = draw(st.sets(st.integers(0, 8), min_size=2, max_size=5))
    vals = sorted(F(k, 4) for k in picks)
    points = tuple(str(v) for v in vals)
    rows = tuple(
        tuple(ExtReal(abs(p - q)) for q in vals) for p in vals
    )
    return FiniteMetricSpace(points, rows)


@settings(max_examples=40, deadline=None)
@given(metric_subgrid(), st.data())
def test_theta_geq_xi_geq_phi(a, data):
    maps = enumerate_nonexpansive(a, a)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    phi = hom_distance("phi", a, a, f, g)
    xi = hom_distance("xi", a, a, f, g)
    theta = hom_distance("theta", a, a, f, g)
    assert phi <= xi <= theta or xi == ZERO
    assert phi <= theta


@settings(max_examples=40, deadline=None)
@given(ultrametric_space(), st.data())
def test_ultrametric_codomain_collapses_xi_to_phi(b, data):
    a = FiniteMetricSpace.from_matrix(["x", "y"], [[0, 1], [1, 0]])
    maps = enumerate_nonexpansive(a, b)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    assert hom_distance("xi", a, b, f, g) == hom_distance("phi", a, b, f, g)


# ---------------------------------------------------------------------------
# Exponentiability


def brute_exp_full(space):
    """Midpoint existence over a dense set of rational decompositions."""
    n = space.size
    for i in range(n):
        for j in range(n):
            total = space.d(i, j)
            if total.is_infinite:
                continue
            t = total.fraction
            for num in range(0, 17):
                alpha = t * F(num, 16)
                beta = t - alpha
                if not any(
                    space.d(i, k).fraction <= alpha
                    and space.d(k, j).fraction <= beta
                    for k in range(n)
                    if not space.d(i, k).is_infinite and not space.d(k, j).is_infinite
                ):
                    return False
    return True


@pytest.mark.parametrize(
    "space,ok",
    [
        (grid(0, 1, "1/4"), False),
        (grid(0, 1, 1), False),
        (grid(0, 4, 1), False),
        (FiniteMetricSpace.from_matrix(["a"], [[0]]), True),
    ],
)
def test_exp_check_full_matches_brute_midpoints(space, ok):
    assert check_exponentiable(space, "full").ok == ok
    assert brute_exp_full(space) == ok


def test_exp_check_image_restricted_grids_pass():
    for step in ("1/4", "1/8"):
        assert check_exponentiable(grid(0, 1, step), "image_restricted").ok


def test_exp_check_two_point_witness():
    res = check_exponentiable(grid(0, 1, 1), "full")
    assert not res.ok
    x0, x2, alpha, beta = res.witness
    assert {x0, x2} == {"0", "1"}
    assert alpha == beta == ExtReal(F(1, 2))
    assert check_exponentiable(grid(0, 1, 1), "image_restricted").ok


def test_exp_check_requires_metric():
    with pytest.raises(PreconditionError):
        check_exponentiable(SPACES["partial"], "full")
