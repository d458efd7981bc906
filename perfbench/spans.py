"""Span recorder that times calls into ddcauchy's layers from outside.

``Tracer.install()`` swaps each traced public function (and method) of
``mesh``, ``assembly``, ``geometry``, ``saddle``, ``inversion`` and
``experiments`` for a wrapper that records a span (name, start, end,
parent) around the call; ``uninstall()`` puts every original back.  No
source file of the package is changed.  Functions imported by name into
other modules are replaced wherever that module holds them, so a call
through ``experiments.refine_band`` is traced like one through
``mesh.refine_band``.

The KKT matrix product inside MINRES has no function of its own; the
wrapper of ``build_system`` hands MINRES a proxy whose ``@`` is timed as
``saddle.matvec``.  The proxy forwards every other attribute, and the
product it computes is the same call on the same matrix, so solver
outputs stay bit-identical.

Spans and counts stay in memory; ``layer_metrics`` turns them into the
per-layer numbers of one study.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Wrapped public functions: (module, attribute) -> span name.
FUNCTIONS = {
    ("mesh", "refine_band"): "mesh.refine_band",
    ("assembly", "assemble_weighted_stiffness"): "assembly.stiffness",
    ("assembly", "assemble_bulk_mass"): "assembly.bulk_mass",
    ("assembly", "assemble_band_mass"): "assembly.band_mass",
    ("saddle", "build_system"): "saddle.build_system",
    ("saddle", "minres"): "saddle.minres",
    ("saddle", "spectrum"): "saddle.spectrum",
    ("inversion", "extend_data"): "inversion.extend_data",
    ("inversion", "error_norms"): "inversion.error_norms",
    ("inversion", "diffuse_tikhonov"): "inversion.diffuse_tikhonov",
}

# Wrapped methods: (module, class, attribute) -> span name.
METHODS = {
    ("assembly", "OperatorSet", "build"): "assembly.operator_set",
    ("geometry", "PhaseField", "phase_and_weights"):
        "geometry.phase_and_weights",
    ("experiments", "Workspace", "diffuse_ops"): "experiments.diffuse_ops",
    ("saddle", "RieszPreconditioner", "__post_init__"): "saddle.riesz_factor",
    ("saddle", "RieszPreconditioner", "apply"): "saddle.prec_apply",
    ("inversion", "SharpSolver", "tikhonov"): "inversion.sharp_tikhonov",
}

# Per-layer metrics of one study: name -> (unit, better).  Times are the
# inclusive time of the span per study; counts are exact.  The ops-cache
# hit ratio is the share of KKT systems built on an OperatorSet that an
# earlier system of the study already used: the reuse the Workspace cache
# provides (table builds 25 systems on 5 sets, fig7 7 on 7).
PER_LAYER = {
    "mesh.refine_band.s": ("s", "lower"),
    "mesh.refine_band.calls": ("count", "lower"),
    "mesh.triangles": ("count", "lower"),
    "mesh.vertices": ("count", "lower"),
    "assembly.stiffness.s": ("s", "lower"),
    "assembly.bulk_mass.s": ("s", "lower"),
    "assembly.band_mass.s": ("s", "lower"),
    "assembly.nnz": ("count", "lower"),
    "assembly.cut_ratio": ("ratio", "lower"),
    "geometry.phase_and_weights.s": ("s", "lower"),
    "geometry.phase_and_weights.points": ("count", "lower"),
    "experiments.ops_cache.hit_ratio": ("ratio", "higher"),
    "saddle.build_system.s": ("s", "lower"),
    "saddle.riesz_factor.s": ("s", "lower"),
    "saddle.riesz_factor.calls": ("count", "lower"),
    "saddle.riesz_factor.per_ops": ("ratio", "lower"),
    "saddle.riesz_h.fill": ("ratio", "lower"),
    "saddle.minres.s": ("s", "lower"),
    "saddle.minres.iterations": ("count", "lower"),
    "saddle.minres.ms_per_iter": ("ms", "lower"),
    "saddle.prec_apply.s": ("s", "lower"),
    "saddle.prec_apply.calls": ("count", "lower"),
    "saddle.matvec.s": ("s", "lower"),
    "saddle.minres.vector_s": ("s", "lower"),
    "saddle.spectrum.s": ("s", "lower"),
    "saddle.spectrum.n": ("count", "lower"),
    "inversion.extend_data.s": ("s", "lower"),
    "inversion.error_norms.s": ("s", "lower"),
    "inversion.sharp_tikhonov.s": ("s", "lower"),
    "inversion.sharp_tikhonov.calls": ("count", "lower"),
    "trace.study_s": ("s", "lower"),
    "trace.untraced_study_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
}

# Counts that must repeat exactly between studies of one run.
EXACT_COUNTS = (
    "saddle.minres.iterations", "mesh.triangles", "mesh.vertices",
    "mesh.refine_band.calls", "assembly.nnz",
    "geometry.phase_and_weights.points", "saddle.riesz_factor.calls",
    "saddle.prec_apply.calls", "saddle.spectrum.n",
    "inversion.sharp_tikhonov.calls",
)


class _TimedMatrix:
    """Stands in for the KKT matrix; times ``@`` and forwards the rest."""

    def __init__(self, matrix, matmul):
        self._matrix = matrix
        self._matmul = matmul

    def __matmul__(self, x):
        return self._matmul(x)

    def __getattr__(self, name):
        return getattr(self._matrix, name)


class Tracer:
    """Spans and counts of one study, recorded while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.points = 0          # phase-field evaluation points
        self.iterations = 0      # MINRES iterations
        self.spectrum_n = 0      # size of the densely solved system
        self.built_ops = []      # every OperatorSet assembled
        self.systems = 0         # KKT systems built
        self.reused = 0          # ... on an OperatorSet used before
        self._used = {}          # id -> OperatorSet a system was built on
        self.factor_ops = []     # OperatorSet of each Riesz factorization
        self.lu_h_nnz = 0        # nnz(L + U) of the R_H factors
        self.r_h_nnz = 0         # nnz(R_H) of the same matrices
        self._saved = []         # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, out)``
        collects counts once the span is closed."""
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                self._stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after_points(self, args, out):
        self.points += int(np.size(args[1])) // 2

    def _after_build_system(self, args, system):
        self.systems += 1
        if id(system.ops) in self._used:
            self.reused += 1
        self._used[id(system.ops)] = system.ops
        system.matrix = _TimedMatrix(
            system.matrix, self.timed("saddle.matvec",
                                      system.matrix.__matmul__))

    def _after_minres(self, args, out):
        self.iterations += out[1].iterations

    def _after_spectrum(self, args, out):
        self.spectrum_n += args[0].size

    def _after_build(self, args, ops):
        self.built_ops.append(ops)

    def _after_factor(self, args, _):
        prec = args[0]
        self.factor_ops.append(prec.system.ops)
        # exact mode: the H-block solve is a bound SuperLU.solve
        lu_h = getattr(getattr(prec, "_apply_h", None), "__self__", None)
        if hasattr(lu_h, "nnz"):
            self.lu_h_nnz += int(lu_h.nnz)
            self.r_h_nnz += int(prec._riesz_h.nnz)

    # -- installation ----------------------------------------------------

    def install(self):
        """Replace every traced function and method by its wrapper."""
        pkg = sys.modules["ddcauchy"]
        modules = [m for k, m in sys.modules.items()
                   if k == "ddcauchy" or k.startswith("ddcauchy.")]
        after = {
            "saddle.build_system": self._after_build_system,
            "saddle.minres": self._after_minres,
            "saddle.spectrum": self._after_spectrum,
            "assembly.operator_set": self._after_build,
            "geometry.phase_and_weights": self._after_points,
            "saddle.riesz_factor": self._after_factor,
        }
        for (mod, attr), name in FUNCTIONS.items():
            orig = getattr(getattr(pkg, mod), attr)
            wrapped = self.timed(name, orig, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._saved.append((module, key, orig))
                        setattr(module, key, wrapped)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(getattr(pkg, mod), cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(self.timed(name, orig.__func__,
                                                 after.get(name)))
            else:
                wrapped = self.timed(name, orig, after.get(name))
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def layers(self):
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus that of its direct children.
        """
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[idx]
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def layer_metrics(self, study_s: float) -> dict:
        """Per-layer metrics of the traced study (``trace.untraced_study_s``
        and ``trace.overhead_s`` are filled in by the caller)."""
        from ddcauchy.assembly import _support_mask
        from ddcauchy.mesh import band_triangles

        lay = self.layers()

        def secs(name):
            return lay.get(name, (0, 0.0, 0.0))[1]

        def calls(name):
            return lay.get(name, (0, 0.0, 0.0))[0]

        cut = bulk = 0
        for ops in self.built_ops:
            mesh, pf = ops.mesh, ops.field
            cut += int(band_triangles(mesh.vertices, mesh.triangles, pf,
                                      pf.epsilon).sum())
            bulk += int(_support_mask(mesh, pf, "bulk").sum())
        minres_s = secs("saddle.minres")
        return {
            "mesh.refine_band.s": secs("mesh.refine_band"),
            "mesh.refine_band.calls": calls("mesh.refine_band"),
            "mesh.triangles": sum(o.mesh.num_triangles
                                  for o in self.built_ops),
            "mesh.vertices": sum(o.mesh.num_vertices
                                 for o in self.built_ops),
            "assembly.stiffness.s": secs("assembly.stiffness"),
            "assembly.bulk_mass.s": secs("assembly.bulk_mass"),
            "assembly.band_mass.s": secs("assembly.band_mass"),
            "assembly.nnz": sum(o.k_omega.nnz + o.m_omega.nnz + o.b_h.nnz
                                + o.b_b.nnz for o in self.built_ops),
            "assembly.cut_ratio": cut / bulk if bulk else 0.0,
            "geometry.phase_and_weights.s":
                secs("geometry.phase_and_weights"),
            "geometry.phase_and_weights.points": self.points,
            "experiments.ops_cache.hit_ratio":
                self.reused / self.systems if self.systems else 0.0,
            "saddle.build_system.s": secs("saddle.build_system"),
            "saddle.riesz_factor.s": secs("saddle.riesz_factor"),
            "saddle.riesz_factor.calls": calls("saddle.riesz_factor"),
            "saddle.riesz_factor.per_ops":
                (len(self.factor_ops)
                 / len({id(o) for o in self.factor_ops})
                 if self.factor_ops else 0.0),
            "saddle.riesz_h.fill":
                self.lu_h_nnz / self.r_h_nnz if self.r_h_nnz else 0.0,
            "saddle.minres.s": minres_s,
            "saddle.minres.iterations": self.iterations,
            "saddle.minres.ms_per_iter":
                1e3 * minres_s / self.iterations if self.iterations else 0.0,
            "saddle.prec_apply.s": secs("saddle.prec_apply"),
            "saddle.prec_apply.calls": calls("saddle.prec_apply"),
            "saddle.matvec.s": secs("saddle.matvec"),
            "saddle.minres.vector_s": lay.get("saddle.minres",
                                              (0, 0.0, 0.0))[2],
            "saddle.spectrum.s": secs("saddle.spectrum"),
            "saddle.spectrum.n": self.spectrum_n,
            "inversion.extend_data.s": secs("inversion.extend_data"),
            "inversion.error_norms.s": secs("inversion.error_norms"),
            "inversion.sharp_tikhonov.s": secs("inversion.sharp_tikhonov"),
            "inversion.sharp_tikhonov.calls":
                calls("inversion.sharp_tikhonov"),
            "trace.study_s": study_s,
            "trace.self_sum_s": sum(v[2] for v in lay.values()),
        }
