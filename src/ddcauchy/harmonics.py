"""Closed-form angular-mode solutions on the annulus.

For the conductivity M = sigma_t * t t^T + sigma_r * n n^T (polar frame),
div(M grad v) = 0 separates in polar coordinates: with s = sqrt(sigma_t /
sigma_r), the mode-k solutions are

    v_k(r, theta) = (c r^(k s) + d r^(-k s)) * {cos, sin}(k theta).

The boundary flux n . M grad v equals sigma_r * dv/dr on the outer circle
and -sigma_r * dv/dr on the inner one, so Neumann problems reduce to 2x2
(here triangular) systems per mode.  One such solve serves the forward
problem (flux u on the inner circle, insulated outer) and the adjoint
problem (flux w on the outer circle, insulated inner); from them come the
exact triples (u, f, v) used as ground truth by the inversion pipeline.

Mean-zero modes only (k >= 1): the k = 0 mode carries no information
through either map and is excluded from the series type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AnnulusGeometry, ConductivityTensor


@dataclass(frozen=True)
class SeriesTerm:
    kind: str      # "cos" or "sin"
    k: int         # angular wavenumber, >= 1
    coef: float

    def __post_init__(self):
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"kind must be cos or sin, got {self.kind!r}")
        if self.k < 1:
            raise ValueError("angular wavenumber must be >= 1")


@dataclass(frozen=True)
class AngularSeries:
    """Finite trigonometric series on a circle, mean-free by construction."""

    terms: tuple

    @classmethod
    def of(cls, *triples) -> "AngularSeries":
        return cls(tuple(SeriesTerm(kind, k, float(c))
                         for kind, k, c in triples))

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for t in self.terms:
            trig = np.cos if t.kind == "cos" else np.sin
            out += t.coef * trig(t.k * theta)
        return out

    def scaled(self, factor: float) -> "AngularSeries":
        return AngularSeries(tuple(SeriesTerm(t.kind, t.k, t.coef * factor)
                                   for t in self.terms))


@dataclass(frozen=True)
class RadialProfile:
    """c * r^mu + d * r^(-mu)."""

    c: float
    d: float
    mu: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * r ** self.mu + self.d * r ** (-self.mu)


@dataclass(frozen=True)
class ModeField:
    """Sum of separable modes, callable on points."""

    profiles: tuple  # of (SeriesTerm, RadialProfile)

    def __call__(self, points, r_min: float = 0.0) -> np.ndarray:
        """Evaluate at points; radii are clamped from below by r_min.

        The separable modes blow up like r^(-mu) toward the origin, so a
        bounded extension inward (constant along rays below r_min) is
        used when evaluating across the inner interface band.
        """
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if r_min > 0.0:
            r = np.maximum(r, r_min)
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        out = np.zeros(r.shape)
        for term, prof in self.profiles:
            trig = np.cos if term.kind == "cos" else np.sin
            out += prof.value(r) * trig(term.k * theta)
        return out

    def trace_series(self, radius: float) -> AngularSeries:
        return AngularSeries(tuple(
            SeriesTerm(term.kind, term.k, float(prof.value(radius)))
            for term, prof in self.profiles))


def _neumann_modes(tensor: ConductivityTensor, series: AngularSeries,
                   flux_radius: float, insulated_radius: float,
                   sign: int) -> ModeField:
    """Field with sign * sigma_r * v'(flux_radius) = series and
    v'(insulated_radius) = 0, sign the radial component of the outward
    normal on the flux circle (-1 inner, +1 outer).  No constant component
    per mode, matching the mean-zero state space of the weak form."""
    s = tensor.anisotropy_exponent
    a, b = flux_radius, insulated_radius
    profiles = []
    for term in series.terms:
        mu = term.k * s
        # v'(b) = 0  ->  c b^(mu-1) = d b^(-mu-1)  ->  d = c b^(2 mu)
        denom = sign * tensor.sigma_r * mu * (
            a ** (mu - 1.0) - b ** (2.0 * mu) * a ** (-mu - 1.0))
        c = term.coef / denom
        profiles.append((term, RadialProfile(c, c * b ** (2.0 * mu), mu)))
    return ModeField(tuple(profiles))


def solve_forward_modes(geometry: AnnulusGeometry,
                        tensor: ConductivityTensor,
                        u: AngularSeries) -> ModeField:
    """Field with n . M grad v = u on the inner circle, 0 on the outer."""
    return _neumann_modes(tensor, u, geometry.r_inner, geometry.r_outer, -1)


def solve_adjoint_modes(geometry: AnnulusGeometry,
                        tensor: ConductivityTensor,
                        w: AngularSeries) -> ModeField:
    """Field with n . M grad p = w on the outer circle, 0 on the inner."""
    return _neumann_modes(tensor, w, geometry.r_outer, geometry.r_inner, 1)


@dataclass(frozen=True)
class GroundTruth:
    """Exact data for the inversion pipeline, built from a source density.

    w        source density lambda on the outer circle
    u_series exact control u = F* w on the inner circle (trace of p)
    f_series exact data f = F u on the outer circle (trace of v)
    v_field  exact state (forward solution driven by u)
    p_field  exact adjoint (driven by w)
    """

    w: AngularSeries
    u_series: AngularSeries
    f_series: AngularSeries
    v_field: ModeField
    p_field: ModeField

    def u_dagger(self, theta):
        return self.u_series(theta)

    def f_dagger(self, theta):
        return self.f_series(theta)


def synthesize_truth(geometry: AnnulusGeometry, tensor: ConductivityTensor,
                     w: AngularSeries) -> GroundTruth:
    """Chain w -> u = F* w -> f = F u, all in closed form."""
    p_field = solve_adjoint_modes(geometry, tensor, w)
    u_series = p_field.trace_series(geometry.r_inner)
    v_field = solve_forward_modes(geometry, tensor, u_series)
    f_series = v_field.trace_series(geometry.r_outer)
    return GroundTruth(w, u_series, f_series, v_field, p_field)
