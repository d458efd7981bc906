import numpy as np
import pytest

from ddcauchy.harmonics import (AngularSeries, solve_adjoint_modes,
                                solve_forward_modes, synthesize_truth)

from oracles import evaluate, radial_flux


def l2_norm(series, radius):
    """Exact L2(circle) norm of a series: ||cos k theta||^2 = pi * radius."""
    return np.sqrt(np.pi * radius * sum(t.coef ** 2 for t in series.terms))


def fd_div_m_grad(field, tensor, pts, h=1e-5):
    """Finite-difference div(M grad v) at points, the PDE residual oracle."""
    def flux(p):
        # M grad v by central differences
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        gx = (field(p + e1) - field(p - e1)) / (2 * h)
        gy = (field(p + e2) - field(p - e2)) / (2 * h)
        m = evaluate(tensor, p)
        return np.stack([m[..., 0, 0] * gx + m[..., 0, 1] * gy,
                         m[..., 1, 0] * gx + m[..., 1, 1] * gy], axis=-1)

    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    div = ((flux(pts + e1)[..., 0] - flux(pts - e1)[..., 0]) / (2 * h)
           + (flux(pts + e2)[..., 1] - flux(pts - e2)[..., 1]) / (2 * h))
    return div


def test_forward_mode_satisfies_pde(geometry, tensor):
    field = solve_forward_modes(geometry, tensor,
                                AngularSeries.of(("cos", 2, 1.0)))
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, 40)
    r = rng.uniform(0.4, 0.9, 40)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    resid = fd_div_m_grad(field, tensor, pts)
    scale = np.abs(field(pts)).max() / 0.01  # second-derivative scale
    assert np.abs(resid).max() <= 1e-4 * scale


def test_forward_mode_boundary_conditions(geometry, tensor):
    u = AngularSeries.of(("sin", 2, 0.7))
    field = solve_forward_modes(geometry, tensor, u)
    theta = np.linspace(0, 2 * np.pi, 33)[:-1]
    # inner: -sigma_r dv/dr = u ; outer: dv/dr = 0
    inner_flux = -tensor.sigma_r * radial_flux(field, geometry.r_inner, theta)
    assert inner_flux == pytest.approx(u(theta), abs=1e-12)
    outer_flux = radial_flux(field, geometry.r_outer, theta)
    assert np.abs(outer_flux).max() <= 1e-12


def test_adjoint_mode_boundary_conditions(geometry, tensor):
    w = AngularSeries.of(("cos", 3, 1.3))
    field = solve_adjoint_modes(geometry, tensor, w)
    theta = np.linspace(0, 2 * np.pi, 33)[:-1]
    outer_flux = tensor.sigma_r * radial_flux(field, geometry.r_outer, theta)
    assert outer_flux == pytest.approx(w(theta), abs=1e-12)
    inner_flux = radial_flux(field, geometry.r_inner, theta)
    assert np.abs(inner_flux).max() <= 1e-12


def test_modal_adjoint_identity(geometry, tensor):
    """<F u, w>_outer = <u, F* w>_inner per mode, in closed form."""
    for kind, k in (("cos", 1), ("cos", 2), ("sin", 3)):
        u = AngularSeries.of((kind, k, 1.0))
        w = AngularSeries.of((kind, k, 1.0))
        f = solve_forward_modes(geometry, tensor, u)
        p = solve_adjoint_modes(geometry, tensor, w)
        fu = f.trace_series(geometry.r_outer).terms[0].coef
        fsw = p.trace_series(geometry.r_inner).terms[0].coef
        lhs = fu * np.pi * geometry.r_outer
        rhs = fsw * np.pi * geometry.r_inner
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_series_evaluation_and_norm(geometry):
    s = AngularSeries.of(("cos", 2, 1.0), ("sin", 3, 0.5))
    theta = np.array([0.0, np.pi / 2])
    assert s(theta) == pytest.approx([1.0, -1.5])
    assert l2_norm(s, 1.0) == pytest.approx(
        np.sqrt(np.pi * (1.0 + 0.25)))
    assert s.scaled(2.0).terms[0].coef == 2.0
    with pytest.raises(ValueError):
        AngularSeries.of(("tan", 1, 1.0))
    with pytest.raises(ValueError):
        AngularSeries.of(("cos", 0, 1.0))


def test_synthesize_truth_chain(geometry, tensor):
    truth = synthesize_truth(geometry, tensor,
                             AngularSeries.of(("cos", 2, 1.0),
                                              ("sin", 3, 0.5)))
    # u = trace of the adjoint on the inner circle
    theta = np.linspace(0, 2 * np.pi, 50)
    pts = np.column_stack([0.3 * np.cos(theta), 0.3 * np.sin(theta)])
    assert truth.p_field(pts) == pytest.approx(truth.u_dagger(theta))
    # f = trace of the state on the outer circle
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    assert truth.v_field(pts) == pytest.approx(truth.f_dagger(theta))
    # mean-free by construction
    tt = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    assert abs(truth.u_dagger(tt).mean()) <= 1e-15
    # severe smoothing: |u| << |w|, |f| << |u|
    assert l2_norm(truth.u_series, 0.3) < 0.1 * l2_norm(truth.w, 1.0)
    assert l2_norm(truth.f_series, 1.0) < 0.1 * l2_norm(truth.u_series, 0.3)


def test_truth_regression_values(geometry, tensor):
    """Frozen amplitudes of the default source chain, derived once from
    the closed-form mode gains and pinned."""
    truth = synthesize_truth(geometry, tensor,
                             AngularSeries.of(("cos", 2, 1.0),
                                              ("sin", 3, 0.5)))
    u_coefs = {(t.kind, t.k): t.coef for t in truth.u_series.terms}
    f_coefs = {(t.kind, t.k): t.coef for t in truth.f_series.terms}
    assert u_coefs[("cos", 2)] == pytest.approx(0.022502050961200674,
                                                rel=1e-13)
    assert u_coefs[("sin", 3)] == pytest.approx(0.0008325188858225126,
                                                rel=1e-13)
    assert f_coefs[("cos", 2)] == pytest.approx(0.00015190268923814156,
                                                rel=1e-13)
    assert f_coefs[("sin", 3)] == pytest.approx(4.1585261715069476e-07,
                                                rel=1e-13)


def test_clamped_evaluation(geometry, tensor):
    truth = synthesize_truth(geometry, tensor,
                             AngularSeries.of(("cos", 2, 1.0)))
    pts = np.array([[0.01, 0.0], [0.2, 0.0]])
    vals = truth.v_field(pts, r_min=0.2)
    assert vals[0] == pytest.approx(vals[1])
    assert np.isfinite(vals).all()
