"""Closed-form angular-mode solutions on the annulus.

For the conductivity M = sigma_t * t t^T + sigma_r * n n^T (polar frame),
div(M grad v) = 0 separates in polar coordinates: with s = sqrt(sigma_t /
sigma_r), the mode-k solutions are

    v_k(r, theta) = (c r^(k s) + d r^(-k s)) * {cos, sin}(k theta).

The boundary flux n . M grad v equals sigma_r * dv/dr on the outer circle
and -sigma_r * dv/dr on the inner one, so Neumann problems reduce to 2x2
(here triangular) systems per mode.  This module solves the forward
problem (flux u on the inner circle, insulated outer), the adjoint
problem (flux w on the outer circle, insulated inner) and synthesizes the
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

    def l2_norm(self, radius: float) -> float:
        """Exact L2(circle) norm: ||cos k theta||^2 = pi * radius."""
        return float(np.sqrt(np.pi * radius * sum(t.coef ** 2
                                                  for t in self.terms)))


@dataclass(frozen=True)
class RadialProfile:
    """c * r^mu + d * r^(-mu), with derivative evaluation."""

    c: float
    d: float
    mu: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * r ** self.mu + self.d * r ** (-self.mu)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        return self.mu * (self.c * r ** (self.mu - 1.0)
                          - self.d * r ** (-self.mu - 1.0))


@dataclass(frozen=True)
class ModeField:
    """Sum of separable modes: callable on points or on (r, theta)."""

    profiles: tuple  # of (SeriesTerm, RadialProfile)

    def eval_polar(self, r, theta) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape)
        for term, prof in self.profiles:
            trig = np.cos if term.kind == "cos" else np.sin
            out += prof.value(r) * trig(term.k * theta)
        return out

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
        return self.eval_polar(r, theta)

    def radial_flux(self, r, theta) -> np.ndarray:
        """dv/dr at (r, theta)."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape)
        for term, prof in self.profiles:
            trig = np.cos if term.kind == "cos" else np.sin
            out += prof.deriv(r) * trig(term.k * theta)
        return out

    def trace_series(self, radius: float) -> AngularSeries:
        return AngularSeries(tuple(
            SeriesTerm(term.kind, term.k, float(prof.value(radius)))
            for term, prof in self.profiles))


def solve_forward_modes(geometry: AnnulusGeometry,
                        tensor: ConductivityTensor,
                        u: AngularSeries) -> ModeField:
    """Field with n . M grad v = u on the inner circle, 0 on the outer.

    The solution is normalized per mode (no constant component), matching
    the mean-zero state space of the weak form.
    """
    s = tensor.anisotropy_exponent
    ri, ro = geometry.r_inner, geometry.r_outer
    profiles = []
    for term in u.terms:
        mu = term.k * s
        # outer: v'(ro) = 0  ->  c ro^(mu-1) = d ro^(-mu-1)
        # inner: -sigma_r v'(ri) = coef
        # with d = c ro^(2 mu):
        denom = tensor.sigma_r * mu * (ri ** (-mu - 1.0) * ro ** (2.0 * mu)
                                       - ri ** (mu - 1.0))
        c = term.coef / denom
        profiles.append((term, RadialProfile(c, c * ro ** (2.0 * mu), mu)))
    return ModeField(tuple(profiles))


def solve_adjoint_modes(geometry: AnnulusGeometry,
                        tensor: ConductivityTensor,
                        w: AngularSeries) -> ModeField:
    """Field with n . M grad p = w on the outer circle, 0 on the inner."""
    s = tensor.anisotropy_exponent
    ri, ro = geometry.r_inner, geometry.r_outer
    profiles = []
    for term in w.terms:
        mu = term.k * s
        # inner: p'(ri) = 0  ->  d = c ri^(2 mu)
        # outer: sigma_r p'(ro) = coef
        denom = tensor.sigma_r * mu * (ro ** (mu - 1.0)
                                       - ri ** (2.0 * mu) * ro ** (-mu - 1.0))
        c = term.coef / denom
        profiles.append((term, RadialProfile(c, c * ri ** (2.0 * mu), mu)))
    return ModeField(tuple(profiles))


@dataclass(frozen=True)
class GroundTruth:
    """Exact data for the inversion pipeline, built from a source density.

    w        source density lambda on the outer circle
    u_series exact control u = F* w on the inner circle (trace of p)
    f_series exact data f = F u on the outer circle (trace of v)
    v_field  exact state (forward solution driven by u)
    p_field  exact adjoint (driven by w)
    """

    geometry: AnnulusGeometry
    tensor: ConductivityTensor
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
    return GroundTruth(geometry, tensor, w, u_series, f_series,
                       v_field, p_field)
