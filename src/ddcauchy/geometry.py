"""Exact phase-field geometry for the circle-in-circle domain.

The computational domain is the annulus D = {r_inner < |x| < r_outer}
embedded in a bounding box.  All geometric quantities (signed distance,
phase field, interface weights) are evaluated analytically from the
radii; nothing is ever interpolated from a mesh.

Conventions:
    d(x)      signed distance to the annulus boundary, negative inside D
    phi(x)    = S(-d/eps), piecewise-linear sigmoid profile
    omega(x)  = (1 + phi)/2, smeared indicator of D
    |grad omega| = 1/(2 eps) on the open band {|d| < eps}, 0 elsewhere

The two interface bands (around r_inner and r_outer) are kept disjoint by
an admissibility cap on eps.  The weights gamma_H / gamma_B are sharp
radial indicators split at ``split_radius``; they are exact here because
neither band can reach the split radius for admissible eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hard cap keeping both bands clear of the split radius with margin.
EPS_MAX = 0.25


class StageError(Exception):
    """Base of the errors a solve stage raises on input that loaded; the
    CLI reports it on one stderr line naming ``stage``."""

    stage = "solve"


class BandError(StageError, ValueError):
    """Raised for an inadmissible eps."""

    stage = "phase field"


@dataclass(frozen=True)
class AnnulusGeometry:
    """Circle-in-circle domain: annulus between two concentric circles."""

    r_inner: float = 0.3
    r_outer: float = 1.0
    split_radius: float = 0.65

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.split_radius < self.r_outer):
            raise ValueError(
                f"need 0 < r_inner < split_radius < r_outer, got "
                f"({self.r_inner}, {self.split_radius}, {self.r_outer})"
            )

    @property
    def eps_admissible(self) -> float:
        """Largest admissible eps: the bands must stay clear of the split
        radius, with a safety margin (0.25 for the default radii)."""
        cap = EPS_MAX * (self.r_outer - self.r_inner) / 0.7
        return min(
            self.split_radius - self.r_inner,
            self.r_outer - self.split_radius,
            cap,
        )

    def signed_distance(self, points) -> np.ndarray:
        """max(r_inner - |x|, |x| - r_outer); negative inside the annulus."""
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        return np.maximum(self.r_inner - r, r - self.r_outer)

    def boundary_weight(self, which: str, points) -> np.ndarray:
        """Sharp indicator gamma_H (inner side) or gamma_B (outer side)."""
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        inner = (r < self.split_radius).astype(float)
        if which == "H":
            return inner
        if which == "B":
            return 1.0 - inner
        raise ValueError(f"which must be 'H' or 'B', got {which!r}")


def sigmoid_profile(t) -> np.ndarray:
    """Piecewise-linear sigmoid: identity on (-1, 1), clipped to +-1 outside."""
    return np.clip(np.asarray(t, dtype=float), -1.0, 1.0)


@dataclass(frozen=True)
class PhaseField:
    """Phase-field representation phi = S(-d/eps) of an annulus."""

    geometry: AnnulusGeometry
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise BandError(f"eps must be positive, got {self.epsilon}")
        if self.epsilon > self.geometry.eps_admissible:
            raise BandError(
                f"eps = {self.epsilon} exceeds admissible bound "
                f"{self.geometry.eps_admissible}; interface bands would "
                f"overlap the split radius"
            )

    def phase_and_weights(self, points):
        """Evaluate (phi, omega, |grad omega|) at the given points.

        The band indicator is exact: |grad omega| is 1/(2 eps) strictly
        inside {|d| < eps} and 0 outside, with no smoothing of the edge.
        """
        d = self.geometry.signed_distance(points)
        phi = sigmoid_profile(-d / self.epsilon)
        omega = 0.5 * (1.0 + phi)
        gradmag = np.where(np.abs(d) < self.epsilon, 0.5 / self.epsilon, 0.0)
        return phi, omega, gradmag


@dataclass(frozen=True)
class ConductivityTensor:
    """Anisotropic conductivity M = sigma_t * t t^T + sigma_r * n n^T.

    t and n are the unit tangential/radial directions of the polar frame,
    so the boundary normal is an eigenvector of M everywhere (radial
    eigenvalue sigma_r).  M is uniformly elliptic: m |xi|^2 <= xi^T M xi
    <= |xi|^2 / m with m = min(sigma_t, sigma_r, 1 / max(sigma_t, sigma_r)).
    """

    sigma_t: float = 1.0
    sigma_r: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.sigma_t < np.inf and 0.0 < self.sigma_r < np.inf):
            raise ValueError("eigenvalues of M must be positive and finite")

    @classmethod
    def identity(cls) -> "ConductivityTensor":
        return cls(sigma_t=1.0, sigma_r=1.0)

    @property
    def anisotropy_exponent(self) -> float:
        """Mode-k separable solutions behave like r^(+-k * this)."""
        return float(np.sqrt(self.sigma_t / self.sigma_r))

    def weighted_sum(self, points, weights) -> np.ndarray:
        """sum_q w[m, q] M(x[m, q]), shape (m, 2, 2), from three weighted
        sums by the polar form M = sigma_t I + (sigma_r - sigma_t) n n^T.
        Weights (m, q) or (q,) broadcast; n n^T = I / 2 at the origin."""
        x, y = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        r2 = x * x + y * y
        origin = r2 == 0.0
        inv = 1.0 / np.where(origin, 1.0, r2)
        w = np.broadcast_to(weights, r2.shape)
        s0 = w.sum(axis=-1)
        sxx = (w * np.where(origin, 0.5, x * x * inv)).sum(axis=-1)
        sxy = (w * (x * y * inv)).sum(axis=-1)
        nn = np.stack([sxx, sxy, sxy, s0 - sxx], axis=-1)
        return (self.sigma_t * s0[:, None, None] * np.eye(2)
                + (self.sigma_r - self.sigma_t) * nn.reshape(-1, 2, 2))


# ---------------------------------------------------------------------------
# Reference quadratures in polar coordinates.  These integrate the *actual*
# weight functions of a PhaseField to near machine precision and serve as
# the independent oracle for all mesh-based integrals.
# ---------------------------------------------------------------------------


def _polar_ring(f, center: float, half: float, n_theta: int,
                n_radial: int) -> float:
    """int f(x) r dr dtheta over the ring |r - center| < half.

    Tensor-product rule in polar coordinates: Gauss-Legendre across the
    ring, trapezoid (spectrally accurate for periodic integrands) in the
    angle.  ``f`` maps an (n, 2) array of points to values.
    """
    gl_t, gl_w = np.polynomial.legendre.leggauss(n_radial)
    rr = center + half * gl_t
    wr = half * gl_w
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    R, T = np.meshgrid(rr, theta, indexing="ij")
    pts = np.stack([R * np.cos(T), R * np.sin(T)], axis=-1).reshape(-1, 2)
    vals = np.asarray(f(pts), dtype=float).reshape(n_radial, n_theta)
    return float(np.einsum("i,ij,ij->", wr, vals, R) * (2.0 * np.pi / n_theta))


def band_integral(field: PhaseField, g, which: str,
                  n_theta: int = 256) -> float:
    """Quadrature of int g(x) |grad omega| gamma_which dx over one band,
    the ring of half-width eps around r_inner (H) or r_outer (B), on
    n_theta angles by 24 Gauss points.  ``g`` maps an (n, 2) array of
    points to values."""
    geo = field.geometry

    def integrand(pts):
        _, _, gradmag = field.phase_and_weights(pts)
        vals = np.asarray(g(pts), dtype=float)
        return vals * gradmag * geo.boundary_weight(which, pts)

    radius = geo.r_inner if which == "H" else geo.r_outer
    return _polar_ring(integrand, radius, field.epsilon, n_theta, 24)


def ring_diffuse_integral(field: PhaseField, g, r_lo: float,
                          r_hi: float) -> float:
    """Quadrature of int g omega dx restricted to the ring r_lo < r < r_hi.

    Splits the radial axis at the band kinks of omega so each Gauss piece
    (256 angles by 24 points) is smooth.  Used to isolate the one-sided
    band defect of a single interface (the two-sided defects of this
    geometry cancel exactly).
    """
    geo = field.geometry
    eps = field.epsilon
    kinks = [geo.r_inner - eps, geo.r_inner + eps,
             geo.r_outer - eps, geo.r_outer + eps]
    breaks = sorted({r_lo, r_hi, *[k for k in kinks if r_lo < k < r_hi]})

    def integrand(pts):
        _, omega, _ = field.phase_and_weights(pts)
        return np.asarray(g(pts), dtype=float) * omega

    total = 0.0  # summed in order: sum() compensates on Python >= 3.12
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        total += _polar_ring(integrand, 0.5 * (hi + lo), 0.5 * (hi - lo),
                             256, 24)
    return total


def annulus_integral(geometry: AnnulusGeometry, g,
                     r_lo: float = None) -> float:
    """Quadrature of int g dx over the exact (sharp) annulus, optionally
    restricted to its part r > r_lo, on 256 angles by 48 Gauss points."""
    lo = geometry.r_inner if r_lo is None else max(r_lo, geometry.r_inner)
    hi = geometry.r_outer
    return _polar_ring(g, 0.5 * (hi + lo), 0.5 * (hi - lo), 256, 48)
