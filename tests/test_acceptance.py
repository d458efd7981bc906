"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The heavy studies (``table_run``, ``fig7_runs``,
``fig8_runs``, ``spectrum_run``) are session-scoped fixtures of
``tests/conftest.py``, shared with the golden-file comparison of
``tests/test_golden.py``; so is the alpha = 0 spectrum
(``spectrum_alpha0``), shared with the reduction oracle of
``tests/test_saddle.py``.
Criteria 1-3 run the matching checks of ``ddcauchy.verify``.
"""

import numpy as np

from ddcauchy import experiments as xp
from ddcauchy.assembly import OperatorSet
from ddcauchy.geometry import AnnulusGeometry, ConductivityTensor, PhaseField
from ddcauchy.harmonics import AngularSeries, synthesize_truth
from ddcauchy.inversion import diffuse_forward, extend_control
from ddcauchy.mesh import build_background, levels_for, refine_band
from ddcauchy.verify import (check_adjoint, check_band_measure,
                             check_integral_order)

GEO = AnnulusGeometry()
TEN = ConductivityTensor()

# reference iteration counts (rows eps = 2^-2 .. 2^-6, cols alpha = 1 .. 1e-4)
REFERENCE_ITERATIONS = {
    2: [57, 100, 143, 186, 238],
    3: [57, 91, 126, 157, 195],
    4: [64, 102, 126, 144, 183],
    5: [57, 83, 115, 143, 159],
    6: [55, 79, 105, 123, 155],
}

# frozen spectrum-band constants, calibrated once on the reference mesh
SPECTRUM_C_FROZEN = 0.99     # alpha-cluster lower edge factor (c in [c a, 2a])
SPECTRUM_A_FROZEN = 0.02     # lower edge of the O(1) band
SPECTRUM_B_FROZEN = 5.0      # upper edge of the O(1) band
NEG_SEPARATION = 0.05        # negative band stays below -this


def report(num, name, passed, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'} "
          f"{name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_band_measure():
    check = check_band_measure(GEO, rtol=1e-5)
    report(1, "band-measure identity", check.passed, check.detail)


def test_criterion_02_diffuse_integral_order():
    check = check_integral_order(GEO, min_order=1.9)
    report(2, "diffuse-integral order", check.passed, check.detail)


def test_criterion_03_adjoint_consistency():
    check = check_adjoint(GEO, TEN, tol=1e-10)
    report(3, "adjoint consistency", check.passed, check.detail)


def test_criterion_04_iteration_robustness(table_run):
    iters = table_run.iterations.astype(float)
    ok = table_run.converged.all()
    detail = []
    # (a) per-alpha spread across eps
    spread = (iters.max(axis=0) / iters.min(axis=0)).max()
    ok_a = spread <= 1.6
    detail.append(f"eps-spread {spread:.2f} (<= 1.6)")
    # (b) affine growth in log10(1/alpha), per eps row
    x = np.log10(1.0 / np.array(table_run.alphas))
    r2_min = 1.0
    for row in iters:
        coef = np.polyfit(x, row, 1)
        resid = row - np.polyval(coef, x)
        r2 = 1.0 - (resid ** 2).sum() / ((row - row.mean()) ** 2).sum()
        r2_min = min(r2_min, r2)
    ok_b = r2_min >= 0.95
    detail.append(f"min R^2 {r2_min:.3f} (>= 0.95)")
    # (c) each count within [1/3, 3] of the reference entry
    ratios = []
    for i, eps in enumerate(table_run.epsilons):
        ref = REFERENCE_ITERATIONS[round(-np.log2(eps))]
        ratios.extend(iters[i] / np.array(ref, dtype=float))
    ratios = np.array(ratios)
    ok_c = bool(np.all(ratios >= 1 / 3) and np.all(ratios <= 3))
    detail.append(f"reference-count ratios in "
                  f"[{ratios.min():.2f}, {ratios.max():.2f}] (within [1/3, 3])")
    report(4, "iteration robustness", ok and ok_a and ok_b and ok_c,
           "; ".join(detail))


def test_criterion_05_spectrum_banding(spectrum_run, spectrum_alpha0):
    alpha = 1e-4
    assert (spectrum_run.alpha, spectrum_run.epsilon) == (alpha, 0.125)
    assert spectrum_run.size <= 2000
    eigs = spectrum_run.eigenvalues
    neg = eigs[eigs < 0.0]
    pos = eigs[eigs > 0.0]
    ok_a = neg.max() <= -NEG_SEPARATION
    cluster = pos[pos <= 3.0 * alpha]
    ok_b = (cluster.min() >= 0.5 * SPECTRUM_C_FROZEN * alpha
            and len(cluster) > 0)
    unit = pos[pos >= SPECTRUM_A_FROZEN]
    ok_c = len(unit) > 0 and unit.max() <= SPECTRUM_B_FROZEN
    isolated = pos[(pos > 3.0 * alpha) & (pos < SPECTRUM_A_FROZEN)]
    iso_neg = neg[neg > -NEG_SEPARATION]
    n_iso = len(isolated) + len(iso_neg)
    ok_d = n_iso <= 12
    # alpha = 0: ill-posedness cluster at the origin
    eigs0 = spectrum_alpha0[1]
    smallest = np.abs(eigs0).min()
    ok_e = smallest < 1e-8
    report(5, "spectrum banding", ok_a and ok_b and ok_c and ok_d and ok_e,
           f"neg band up to {neg.max():.3f}; alpha-cluster "
           f"[{cluster.min() / alpha:.2f}, {cluster.max() / alpha:.2f}] x alpha; "
           f"O(1) band [{unit.min():.3f}, {unit.max():.3f}]; "
           f"{n_iso} isolated (<= 12); alpha=0 smallest {smallest:.1e}")


def test_criterion_06_fig7_rates(fig7_runs):
    _, res_half = fig7_runs["half"]
    _, res_third = fig7_runs["third"]
    s_half = res_half.u_fit.slope
    s_third = res_third.u_fit.slope
    ok = (0.35 <= s_half <= 0.75) and (s_third <= s_half + 0.1)
    ok = ok and all(r.converged for r in res_half.rows + res_third.rows)
    report(6, "fig7 control rate", ok,
           f"u-slope {s_half:.3f} (in [0.35, 0.75]); "
           f"eps~delta^(1/3) slope {s_third:.3f} "
           f"(<= {s_half:.3f} + 0.1)")


def test_criterion_07_fig8_rates(fig8_runs):
    sharp = fig8_runs["sharp"]
    diffuse = fig8_runs["diffuse"]
    s_sharp = sharp.u_fit.slope
    three = sorted((r.delta, r.u_err_band) for r in diffuse.rows)[:3]
    s3 = xp.fit_loglog_slope(three).slope
    ok = (0.5 <= s_sharp <= 0.85) and (s3 >= 0.55)
    ok = ok and all(r.converged for r in diffuse.rows)
    report(7, "fig8 rates", ok,
           f"sharp slope {s_sharp:.3f} (in [0.5, 0.85]); "
           f"diffuse eps=35 delta^(2/3) slope over 3 smallest {s3:.3f} "
           f"(>= 0.55)")


def test_criterion_08_data_fidelity_rate(fig7_runs):
    _, res_half = fig7_runs["half"]
    slope = res_half.v_fit.slope
    ok = 0.8 <= slope <= 1.2
    report(8, "data-fidelity rate", ok,
           f"v-slope {slope:.3f} under fig7 schedule (in [0.8, 1.2])")


def test_criterion_09_perturbation_decay():
    h0 = 0.05
    truth = synthesize_truth(GEO, TEN, AngularSeries.of(
        ("cos", 1, 7.0), ("cos", 2, 4.2), ("sin", 3, 2.8)))
    base = build_background(h0)
    errs, eps_list = [], []
    for k in (3, 4, 5, 6):
        eps = 2.0 ** -k
        field = PhaseField(GEO, eps)
        mesh = refine_band(base, field, levels_for(eps, h0) + 1)
        ops = OperatorSet.build(mesh, field, TEN)
        v = diffuse_forward(ops, ops.b_h @ extend_control(truth.u_series,
                                                          ops))
        a_v = ops.active_v
        vt = np.zeros(mesh.num_vertices)
        vt[a_v] = truth.v_field(mesh.vertices[a_v],
                                r_min=GEO.r_inner - eps)
        e = (v - vt)[a_v]
        mv = ops.mean_vec[a_v]
        e = e - (mv @ e) / mv.sum()
        r_h = ops.riesz_h
        errs.append(float(np.sqrt(e @ (r_h @ e))))
        eps_list.append(eps)
    order = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    report(9, "operator-perturbation decay", order >= 1.2 and decreasing,
           f"H-norm errors {[f'{e:.3e}' for e in errs]}, fitted order "
           f"{order:.3f} (>= 1.2; theory 1.5, tail is mesh-limited)")


def test_criterion_10_determinism(fig7_runs):
    cfg_a, res_a = fig7_runs["half"]
    cfg_b, res_b = fig7_runs["repeat"]
    files_a = xp.emit_outputs(cfg_a.out_dir, cfg_a, rates={"fig7": res_a})
    files_b = xp.emit_outputs(cfg_b.out_dir, cfg_b, rates={"fig7": res_b})
    same = True
    import os
    for fa, fb in zip(sorted(files_a), sorted(files_b)):
        if os.path.basename(fa) == "config.echo":
            continue  # directories differ by design; all data files compared
        with open(fa, "rb") as ha, open(fb, "rb") as hb:
            if ha.read() != hb.read():
                same = False
                break
    report(10, "determinism", same,
           "repeated fig7 run yields byte-identical CSVs")
