import numpy as np
import pytest

from ddcauchy.geometry import (AnnulusGeometry, BandError, ConductivityTensor,
                               PhaseField, band_integral, bulk_integral,
                               ring_diffuse_integral, annulus_integral)


def test_signed_distance_examples(geometry):
    pts = np.array([[0.65, 0.0], [0.2, 0.0], [0.0, 1.1]])
    d = geometry.signed_distance(pts)
    assert d == pytest.approx([-0.35, 0.1, 0.1], abs=1e-15)


def test_signed_distance_negative_inside_positive_outside(geometry):
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 2 * np.pi, 100)
    r_in = rng.uniform(0.31, 0.99, 100)
    pts = np.column_stack([r_in * np.cos(theta), r_in * np.sin(theta)])
    assert (geometry.signed_distance(pts) < 0).all()
    r_out = np.concatenate([rng.uniform(0.0, 0.29, 50),
                            rng.uniform(1.01, 1.5, 50)])
    pts = np.column_stack([r_out * np.cos(theta[:100]),
                           r_out * np.sin(theta[:100])])
    assert (geometry.signed_distance(pts) > 0).all()


def test_geometry_invariants_enforced():
    with pytest.raises(ValueError):
        AnnulusGeometry(r_inner=0.7, r_outer=1.0, split_radius=0.65)
    with pytest.raises(ValueError):
        AnnulusGeometry(r_inner=-0.1)


def test_phase_and_weights_examples(geometry):
    eps = 0.1
    field = PhaseField(geometry, eps)
    # d = 0 on the inner circle
    phi, omega, grad = field.phase_and_weights(np.array([[0.3, 0.0]]))
    assert phi[0] == pytest.approx(0.0)
    assert omega[0] == pytest.approx(0.5)
    assert grad[0] == pytest.approx(1.0 / (2 * eps))
    # d = -2 eps (deep inside): saturated
    phi, omega, grad = field.phase_and_weights(np.array([[0.5, 0.0]]))
    assert (phi[0], omega[0], grad[0]) == (1.0, 1.0, 0.0)
    # d = eps/2 on the linear branch, outside
    phi, omega, grad = field.phase_and_weights(np.array([[0.25, 0.0]]))
    assert phi[0] == pytest.approx(-0.5)
    assert omega[0] == pytest.approx(0.25)
    assert grad[0] == pytest.approx(5.0)


def test_phase_bounds_random(geometry):
    field = PhaseField(geometry, 0.125)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    phi, omega, grad = field.phase_and_weights(pts)
    assert ((omega >= 0.0) & (omega <= 1.0)).all()
    assert np.isin(grad, [0.0, 4.0]).all()
    assert ((phi >= -1.0) & (phi <= 1.0)).all()


def test_inadmissible_eps_rejected(geometry):
    with pytest.raises(BandError):
        PhaseField(geometry, 0.3)
    with pytest.raises(BandError):
        PhaseField(geometry, -0.1)
    PhaseField(geometry, 0.25)  # boundary of the guard is allowed


def test_boundary_weight_examples(geometry):
    assert geometry.boundary_weight("H", np.array([[0.3, 0.0]])) == 1.0
    assert geometry.boundary_weight("H", np.array([[1.0, 0.0]])) == 0.0
    assert geometry.boundary_weight("B", np.array([[1.0, 0.0]])) == 1.0
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.2, 1.2, size=(200, 2))
    gh = geometry.boundary_weight("H", pts)
    gb = geometry.boundary_weight("B", pts)
    assert np.all(gh * gb == 0.0)
    assert np.all(gh + gb == 1.0)


def test_band_measure_identity(geometry):
    one = lambda p: np.ones(len(p))
    for k in range(2, 7):
        field = PhaseField(geometry, 2.0 ** -k)
        for which, radius in (("H", 0.3), ("B", 1.0)):
            got = band_integral(field, one, which)
            assert got == pytest.approx(2 * np.pi * radius, rel=1e-12)


def test_extension_norm_equivalence(geometry):
    # ratio ||E u||^2_band / ||u||^2_circle equals 1 exactly on circles
    for k_wave in (1, 4):
        for eps in (0.25, 0.0625):
            field = PhaseField(geometry, eps)

            def ext_sq(pts):
                theta = np.arctan2(pts[:, 1], pts[:, 0])
                return np.cos(k_wave * theta) ** 2

            got = band_integral(field, ext_sq, "B", n_theta=512)
            assert abs(got / np.pi - 1.0) <= eps ** 2


def test_one_sided_band_defect(geometry):
    # outer-circle band defect of the bulk integral is exactly pi eps^2/3
    one = lambda p: np.ones(len(p))
    for eps in (0.125, 0.03125):
        field = PhaseField(geometry, eps)
        diffuse = ring_diffuse_integral(field, one, geometry.split_radius,
                                        geometry.r_outer + eps)
        sharp = np.pi * (geometry.r_outer ** 2 - geometry.split_radius ** 2)
        assert diffuse - sharp == pytest.approx(np.pi * eps ** 2 / 3.0,
                                                rel=1e-9)


def test_bulk_integral_total_mass_cancellation(geometry):
    # two-sided defects cancel: int omega dx = annulus area exactly
    one = lambda p: np.ones(len(p))
    for eps in (0.125, 0.015625):
        field = PhaseField(geometry, eps)
        assert bulk_integral(field, one) == pytest.approx(0.91 * np.pi,
                                                          rel=1e-12)


def test_annulus_integral_oracle(geometry):
    g = lambda p: (np.asarray(p) ** 2).sum(axis=1)
    exact = 2 * np.pi * (1 - 0.3 ** 4) / 4
    assert annulus_integral(geometry, g) == pytest.approx(exact, rel=1e-12)


def test_conductivity_tensor_properties(tensor):
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.4, 1.4, size=(200, 2))
    m = tensor.evaluate(pts)
    assert np.abs(m - np.swapaxes(m, -1, -2)).max() == 0.0
    xi = rng.standard_normal((200, 2))
    quad = np.einsum("na,nab,nb->n", xi, m, xi)
    norms = (xi ** 2).sum(axis=1)
    assert (quad >= tensor.ellipticity * norms - 1e-12).all()
    assert (quad <= norms / tensor.ellipticity + 1e-12).all()
    # the radial direction is an eigenvector with eigenvalue sigma_r
    n = pts / np.hypot(pts[:, 0], pts[:, 1])[:, None]
    mn = np.einsum("nab,nb->na", m, n)
    assert np.abs(mn - tensor.sigma_r * n).max() <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [(1.0, 0.3), (0.2, 5.0), (1.0, 1.0)])
def test_weighted_sum_matches_pointwise_tensor(sigma):
    """The polar-form sums against the einsum of the pointwise tensor, on
    random points plus the origin and points on both axes."""
    tensor = ConductivityTensor(*sigma)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(40, 12, 2))
    pts[0, 0] = 0.0
    pts[1, :4, 0] = 0.0
    pts[2, :4, 1] = 0.0
    pts[3] = 0.0
    w = rng.uniform(0.0, 1.0, size=(40, 12))
    for weights, spec in ((w, "mq,mqab->mab"), (w[0], "q,mqab->mab")):
        ref = np.einsum(spec, weights, tensor.evaluate(pts))
        got = tensor.weighted_sum(pts, weights)
        assert got.shape == (40, 2, 2)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_identity_tensor():
    iden = ConductivityTensor.identity()
    m = iden.evaluate(np.array([[0.4, 0.7]]))
    assert m[0] == pytest.approx(np.eye(2))
