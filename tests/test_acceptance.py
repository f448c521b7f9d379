"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
import numpy as np
import scipy.linalg as sla

import hodgesp.io as hio
from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    SCVarLag,
    SCVarModel,
    apply_filter,
    betti,
    dirac,
    frequency_response,
    hodge_basis,
    hodge_laplacian,
    infer_triangles,
    is_perfectly_recoverable,
    lambda_max,
    lms_build_regressor,
    lms_init,
    lms_step,
    reconstruct_bandlimited,
    scvar_fit,
    scvar_simulate,
    slepians,
)
from hodgesp.cli import run_cli

from conftest import HOLE_CYCLE_EDGES, random_complex


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_01_structural_identities(complex7):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    complexes = [complex7] + [
        random_complex(rng, max_vertices=30, with_cells=(i % 4 == 0))
        for i in range(50)
    ]
    exact_zero = True
    worst = 0.0
    for c in complexes:
        if (c.b1 @ c.b2).count_nonzero():
            exact_zero = False
        d = dirac(c).full.toarray()
        blk = sla.block_diag(*(hodge_laplacian(c, k) for k in (0, 1, 2)))
        denom = max(np.linalg.norm(blk), 1.0)
        worst = max(worst, np.linalg.norm(d @ d - blk) / denom)
    elapsed = time.perf_counter() - start
    ok = exact_zero and worst < 1e-12 and elapsed < 10.0
    report(1, "structural identities (b1 b2 = 0, Dirac^2 = blkdiag)", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_betti_and_harmonic_localization(complex7):
    numbers = betti(complex7)
    # independent oracle: dense null spaces of the Laplacians
    oracle = tuple(
        sla.null_space(hodge_laplacian(complex7, k)).shape[1]
        for k in (0, 1, 2)
    )
    harm = sla.null_space(hodge_laplacian(complex7, 1))
    top3 = set(np.argsort(-np.abs(harm[:, 0]))[:3].tolist())
    ok = (numbers == (1, 1, 0) and oracle == (1, 1, 0)
          and top3 == set(HOLE_CYCLE_EDGES))
    report(2, "Betti numbers (1,1,0), harmonic mode on the open cycle", ok,
           f"betti {numbers}, top-3 edges {sorted(top3)}")


def test_03_hodge_orthogonality(complex7, cell7, skeleton7):
    worst = 0.0
    widths_ok = True
    for c in (complex7, cell7, skeleton7):
        for k in (0, 1, 2):
            basis = hodge_basis(c, k)
            nk = c.num_simplices(k)
            widths_ok &= (basis.n_gradient + basis.n_curl
                          + basis.n_harmonic == nk)
            u = basis.matrix()
            if nk:
                worst = max(worst, float(np.max(np.abs(
                    u.T @ u - np.eye(nk)))))
    ok = widths_ok and worst <= 1e-10
    report(3, "Hodge subspace orthogonality and widths", ok,
           f"max off-orthogonality {worst:.2e}")


def test_04_filter_spectral_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    trials = 0
    while trials < 100:
        c = random_complex(rng, max_vertices=16, with_cells=(trials % 5 == 0))
        orders = [k for k in (0, 1, 2) if c.num_simplices(k) > 0]
        if not orders:
            continue
        k = int(rng.choice(orders))
        spec = HodgeFilterSpec(
            h_down=tuple(rng.uniform(-0.5, 0.5, rng.integers(1, 4))),
            h_up=tuple(rng.uniform(-0.5, 0.5, rng.integers(1, 4))),
        )
        x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
        y = apply_filter(c, k, spec, x).values
        basis = hodge_basis(c, k)
        u = basis.matrix()
        resp = frequency_response(c, k, spec, basis)
        oracle = u @ (resp * (u.T @ x.values))
        denom = max(np.linalg.norm(oracle), 1e-12)
        worst = max(worst, np.linalg.norm(y - oracle) / denom)
        trials += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(4, "filter matches dense spectral oracle (100 triples)", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_05_harmonic_projector(complex7):
    rng = np.random.default_rng(105)
    lam = lambda_max(complex7, 1)
    spec = HodgeFilterSpec(h_down=(0.0,), h_up=(0.0,),
                           harmonic=HarmonicTerm(epsilon=1.0 / lam,
                                                 steps=200))
    basis = hodge_basis(complex7, 1)
    proj = basis.harmonic @ basis.harmonic.T
    worst = 0.0
    for _ in range(20):
        x = complex7.cochain(1, rng.standard_normal(10))
        y = apply_filter(complex7, 1, spec, x).values
        worst = max(worst, float(np.linalg.norm(y - proj @ x.values)))
    report(5, "harmonic projector (eps=1/lambda_max, 200 steps)",
           worst < 1e-6, f"worst err {worst:.2e}")


def test_06_slepian_eigenproblem(complex7):
    rng = np.random.default_rng(106)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    worst_eig = 0.0
    worst_band = 0.0
    for _ in range(20):
        f_set = sorted(rng.choice(10, size=int(rng.integers(1, 7)),
                                  replace=False).tolist())
        s_set = sorted(rng.choice(10, size=int(rng.integers(1, 9)),
                                  replace=False).tolist())
        result = slepians(complex7, s_set, f_set, basis=basis)
        f_proj = u[:, f_set] @ u[:, f_set].T
        c_proj = np.diag(np.isin(np.arange(10), s_set).astype(float))
        op = f_proj @ c_proj @ f_proj
        for vec, conc in zip(result.vectors.T, result.concentrations):
            worst_eig = max(worst_eig,
                            float(np.linalg.norm(op @ vec - conc * vec)))
            worst_band = max(worst_band,
                             float(np.linalg.norm(f_proj @ vec - vec)))
    ok = worst_eig <= 1e-8 and worst_band <= 1e-9
    report(6, "Slepian eigen-relation and bandlimitedness", ok,
           f"eig err {worst_eig:.2e}, band err {worst_band:.2e}")


def test_07_perfect_reconstruction(complex7, cell7):
    rng = np.random.default_rng(107)
    worst = 0.0
    for c in (complex7, cell7):
        basis = hodge_basis(c, 1)
        u = basis.matrix()
        n1 = c.n1
        done = 0
        while done < 100:
            width = int(rng.integers(1, min(6, n1)))
            f = sorted(rng.choice(n1, size=width, replace=False).tolist())
            s = sorted(rng.choice(n1, size=width, replace=False).tolist())
            if not is_perfectly_recoverable(c, 1, f, s, basis=basis).ok:
                continue
            x_star = u[:, f] @ rng.standard_normal(width)
            x = reconstruct_bandlimited(c, 1, f, s, x_star[s], basis=basis)
            worst = max(worst, np.linalg.norm(x.values - x_star)
                        / np.linalg.norm(x_star))
            done += 1
    report(7, "perfect bandlimited reconstruction (100 trials/fixture)",
           worst <= 1e-9, f"worst rel err {worst:.2e}")


def _planted_scvar(c) -> SCVarModel:
    lag1 = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(0.3, -0.02)),
        g01=HodgeFilterSpec(h_down=(0.0,), h_up=(0.1, 0.01)),
        h11=HodgeFilterSpec(h_down=(0.25, 0.03), h_up=(0.0, -0.02)),
        g10=HodgeFilterSpec(h_down=(0.15, -0.01), h_up=(0.0,)),
        g12=HodgeFilterSpec(h_down=(0.0,), h_up=(0.12, 0.02)),
        g21=HodgeFilterSpec(h_down=(0.2, 0.01), h_up=(0.0,)),
        h22=HodgeFilterSpec(h_down=(0.3, -0.03), h_up=(0.0,)),
    )
    lag2 = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(-0.1, 0.01)),
        h11=HodgeFilterSpec(h_down=(-0.12, 0.01), h_up=(0.0, 0.01)),
        h22=HodgeFilterSpec(h_down=(0.1, 0.0), h_up=(0.0,)),
    )
    return SCVarModel(complex=c, lags=(lag1, lag2))


def _max_coef_err(a: SCVarLag, b: SCVarLag) -> float:
    err = 0.0
    for name in ("h00", "g01", "h11", "g10", "g12", "g21", "h22"):
        sa, sb = getattr(a, name), getattr(b, name)
        for pa, pb in ((sa.h_down, sb.h_down), (sa.h_up, sb.h_up)):
            width = max(len(pa), len(pb))
            pa = pa + (0.0,) * (width - len(pa))
            pb = pb + (0.0,) * (width - len(pb))
            err = max(err, float(np.max(np.abs(np.subtract(pa, pb)))))
    return err


def test_08_scvar_recovery(complex7):
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    model = _planted_scvar(complex7)

    def start_signals(n):
        return [ComplexSignal.from_arrays(
            complex7, rng.standard_normal(7), rng.standard_normal(10),
            rng.standard_normal(3)) for _ in range(n)]

    init = start_signals(2)
    series = init + scvar_simulate(model, 150, init, rng=rng)
    fitted, _ = scvar_fit(complex7, series, order=2, filter_order=1)
    coef_err = max(_max_coef_err(a, b)
                   for a, b in zip(model.lags, fitted.lags))

    sigma = 0.1
    init = start_signals(2)
    noisy = init + scvar_simulate(model, 600, init,
                                  noise_std=(sigma, sigma, sigma), rng=rng)
    _, resid = scvar_fit(complex7, noisy, order=2, filter_order=1)
    resid_ok = all(abs(r - sigma**2) / sigma**2 < 0.15 for r in resid)
    elapsed = time.perf_counter() - start
    ok = coef_err < 1e-6 and resid_ok and elapsed < 60.0
    report(8, "SC-VAR recovery (noiseless exact, noisy residual ~ sigma^2)",
           ok, f"coef err {coef_err:.2e}, residuals "
               f"{tuple(round(r, 4) for r in resid)}, {elapsed:.1f}s")


def test_09_topological_lms(complex7):
    t_down = t_up = 1
    h_star = np.array([0.7, 0.25, -0.15])
    sigma = 0.05
    floor = sigma**2 * complex7.n1

    # empirical spectral bound of E[X^T M^T M X] (full mask)
    rng = np.random.default_rng(109)
    mats = []
    window = []
    for _ in range(300):
        window.append(complex7.cochain(1, rng.standard_normal(10)))
        window = window[-2:]
        if len(window) == 2:
            mats.append(lms_build_regressor(complex7, window, t_down, t_up))
    lam_hat = np.linalg.eigvalsh(np.mean([m.T @ m for m in mats], axis=0))[-1]
    mu = 0.2 / lam_hat

    smoothed = []
    for seed in range(50):
        seed_rng = np.random.default_rng(1000 + seed)
        state = lms_init(complex7, t_down, t_up, mu)
        errors = []
        for _ in range(5000):
            x = complex7.cochain(1, seed_rng.standard_normal(10))
            win = (state.window + (x,))[-2:]
            if len(win) < 2:
                state, _ = lms_step(state, x, complex7.zero_cochain(1))
                continue
            x_mat = lms_build_regressor(complex7, win, t_down, t_up)
            y = complex7.cochain(
                1, x_mat @ h_star + sigma * seed_rng.standard_normal(10))
            state, err = lms_step(state, x, y)
            errors.append(err)
        smoothed.append(float(np.mean(errors[-200:])))
    mse = float(np.mean(smoothed))
    gap_db = 10 * np.log10(mse / floor)
    report(9, "topological LMS within 3 dB of the noise floor (50 seeds)",
           abs(gap_db) <= 3.0, f"gap {gap_db:.2f} dB, mu {mu:.2e}")


def test_10_triangle_inference(complex7, skeleton7):
    rng = np.random.default_rng(110)
    b2 = complex7.b2.toarray().astype(float)
    hits = 0
    for _ in range(100):
        flows = b2 @ rng.standard_normal((3, 20)) \
            + 0.01 * rng.standard_normal((10, 20))
        chosen, _ = infer_triangles(skeleton7, flows, 3, "max_curl_fit")
        if sorted(chosen) == sorted(complex7.triangles):
            hits += 1
    report(10, "planted-triangle recovery (max_curl_fit, sigma=0.01)",
           hits >= 95, f"{hits}/100 exact")


def test_11_cli_determinism(tmp_path, complex7):
    rng = np.random.default_rng(111)
    complex_path = tmp_path / "c.json"
    hio.save_complex(complex_path, complex7)
    sig_path = tmp_path / "x.csv"
    hio.save_signal(sig_path, complex7.cochain(1, rng.standard_normal(10)))
    model_path = tmp_path / "m.json"
    hio.save_model(model_path, SCVarModel(complex=complex7, lags=(
        SCVarLag(h11=HodgeFilterSpec(h_down=(0.4, 0.05), h_up=(0.0,))),)))
    series_path = tmp_path / "s.csv"
    hio.save_series(series_path, [ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3))])

    def run_all(tag: str) -> bytes:
        blob = b""
        spectrum = tmp_path / f"spec_{tag}.csv"
        assert run_cli(["spectrum", str(complex_path), "--order", "1",
                        "--seed", "5", "-o", str(spectrum)]) == 0
        decomposed = tmp_path / f"dec_{tag}.csv"
        assert run_cli(["decompose", str(complex_path), str(sig_path),
                        "--order", "1", "--seed", "5",
                        "-o", str(decomposed)]) == 0
        forecast = tmp_path / f"fc_{tag}.csv"
        assert run_cli(["forecast", str(complex_path), str(model_path),
                        str(series_path), "--steps", "4",
                        "--noise-std", "0.1,0.1,0.1", "--seed", "5",
                        "-o", str(forecast)]) == 0
        samples = tmp_path / f"samp_{tag}.txt"
        assert run_cli(["sample", str(complex_path), "--order", "1",
                        "--freqs", "harm+grad:0..2", "-m", "4",
                        "--seed", "5", "-o", str(samples)]) == 0
        for path in (spectrum, decomposed, forecast, samples):
            blob += path.read_bytes()
        return blob

    ok = run_all("a") == run_all("b")
    report(11, "CLI byte-identical under a fixed seed", ok)
