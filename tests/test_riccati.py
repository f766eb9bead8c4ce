import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from roughmerton.kernels import mittag_leffler
from roughmerton.riccati import (
    _PSI_CAP,
    RiccatiBlowup,
    RiccatiSolution,
    RiccatiSpec,
    _adams_weights,
    _sig_reversed,
    _solve_single,
    _variant_coefficients,
    assumption_gate,
    solve_riccati,
)
from roughmerton.simulate import ModelParams
from roughmerton.stabilizer import build_stabilizer
from roughmerton.strategy import UtilitySpec

POWER = UtilitySpec("power", 0.2)
EXP = UtilitySpec("exponential", 0.2)


def make_params(params4, **overrides):
    kw = dict(
        alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
    )
    kw.update(overrides)
    return ModelParams(**kw)


def make_stabs(params, grid_pts=201):
    grid = np.linspace(0.0, params.T, grid_pts)
    return [build_stabilizer(params.kernel_spec(i), params.c[i], grid) for i in range(params.d)]


def riccati_rhs(spec, i, s, psi):
    """a_i + F_i(T - s, psi_i): the Volterra right-hand side at solver time s."""
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    a, lin, quad = _variant_coefficients(spec)
    sig = float(spec.stabilizers[i](spec.params.T - s))
    x = psi[i]
    sx = sig * x
    return float(a[i] + lin[i] * sx - spec.params.lam[i] * x + quad[i] * sx * sx)


def adams_march_reference(alpha, lam, a_i, lin_i, quad_i, sig_rev, dt, n):
    """The fractional Adams march step by step on numpy scalars, with each
    history sum a dot against a reversed view of the weights."""
    bw, aw, a0, acorr = _adams_weights(alpha, dt, n)

    def rhs(j: int, x: float) -> float:
        sx = sig_rev[j] * x
        return a_i + lin_i * sx - lam * x + quad_i * sx * sx

    psi = np.zeros(n + 1)
    fv = np.empty(n + 1)
    fv[0] = rhs(0, 0.0)
    for k in range(n):
        pred = float(np.dot(fv[: k + 1], bw[k::-1]))
        corr = a0[k] * fv[0] + acorr * rhs(k + 1, pred)
        if k >= 1:
            corr += float(np.dot(fv[1 : k + 1], aw[k - 1 :: -1]))
        psi[k + 1] = corr
        fv[k + 1] = rhs(k + 1, corr)
        if abs(psi[k + 1]) > _PSI_CAP:
            return psi, fv, k + 1
    return psi, fv, -1


def psi_bound_check(sol: RiccatiSolution) -> list[dict]:
    """Exponential-utility bound sup|psi^i| <= (theta_i^2/(2 lb_i))(1 - R_lb(T)).

    lb_i = lam_i + nu_i rho_i theta_i ||varsigma^i||_inf when rho_i <= 0, else
    lam_i.  Returns one report dict per asset with keys 'status'
    ('pass'/'fail'/'skipped'), 'bound', 'sup_psi' and 'lam_bar'.
    """
    spec = sol.spec
    if spec.util.kind != "exponential":
        raise ValueError("psi_bound_check applies to exponential variants")
    params = spec.params
    reports = []
    for i in range(params.d):
        sig_sup = float(np.max(np.asarray(spec.stabilizers[i](sol.times))))
        lam_bar = params.lam[i]
        if params.rho[i] <= 0.0:
            lam_bar += params.nu[i] * params.rho[i] * params.theta[i] * sig_sup
        sup_psi = float(np.max(np.abs(sol.psi[i])))
        if lam_bar <= 0.0:
            reports.append(
                {"status": "skipped", "bound": math.inf, "sup_psi": sup_psi, "lam_bar": lam_bar}
            )
            continue
        r_T = mittag_leffler(params.alpha[i], -lam_bar * params.T ** params.alpha[i])
        bound = params.theta[i] ** 2 / (2.0 * lam_bar) * (1.0 - r_T)
        status = "pass" if sup_psi <= bound * (1.0 + 1e-10) + 1e-15 else "fail"
        reports.append({"status": status, "bound": bound, "sup_psi": sup_psi, "lam_bar": lam_bar})
    return reports


@pytest.fixture(scope="module")
def sol_power(params4, stab4):
    return solve_riccati(RiccatiSpec(POWER, params4, stab4, n=200))


@pytest.fixture(scope="module")
def sol_exp(params4, stab4):
    return solve_riccati(RiccatiSpec(EXP, params4, stab4, n=200))


class TestSpecValidation:
    def test_variant_and_grid_checks(self, params4, stab4):
        # the variant is named after the utility family and the correlation form
        assert RiccatiSpec(POWER, params4, stab4, n=200).variant == "power_general"
        equal = make_params(params4, rho=[-0.6, -0.6])
        spec = RiccatiSpec(EXP, equal, stab4, n=200, degenerate=True)
        assert spec.variant == "exponential_degenerate"
        with pytest.raises(ValueError):
            make_params(params4, T=0.0)
        with pytest.raises(ValueError):
            RiccatiSpec(POWER, params4, stab4, n=1)
        with pytest.raises(ValueError):
            RiccatiSpec(POWER, params4, stab4[:1], n=200)

    def test_power_gamma_range(self, params4, stab4):
        # the utility rejects a power gamma outside (0, 1) before any spec is built
        with pytest.raises(ValueError):
            UtilitySpec("power", 1.5)
        # exponential utility allows any finite gamma > 0
        RiccatiSpec(UtilitySpec("exponential", 1.5), params4, stab4, n=100)

    def test_degenerate_requires_equal_rho(self, params4, stab4):
        with pytest.raises(ValueError):
            RiccatiSpec(POWER, params4, stab4, n=100, degenerate=True)

    def test_coverage_check(self, params4):
        short = [
            build_stabilizer(params4.kernel_spec(i), params4.c[i], np.linspace(0, 0.5, 11))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            RiccatiSpec(POWER, params4, short, n=100)


class TestSolution:
    def test_initial_value_and_shapes(self, sol_power):
        assert sol_power.psi.shape == (2, 201)
        assert np.all(sol_power.psi[:, 0] == 0.0)

    def test_rhs_values_consistent(self, sol_power, params4):
        spec = sol_power.spec
        for i in range(2):
            for j in (0, 50, 200):
                expect = riccati_rhs(spec, i, sol_power.times[j], sol_power.psi[:, j])
                assert sol_power.rhs_values[i, j] == pytest.approx(expect, rel=1e-14)

    def test_theta_zero_gives_zero(self, params4, stab4):
        p = make_params(params4, theta=[0.0, 0.0])
        for util in (POWER, EXP):
            sol = solve_riccati(RiccatiSpec(util, p, stab4, n=50))
            assert np.all(sol.psi == 0.0)

    def test_exponential_sign(self, sol_exp):
        assert np.all(sol_exp.psi <= 0.0)
        assert np.all(sol_exp.psi[:, 1:] < 0.0)

    def test_power_sign(self, sol_power):
        # rho < 0 and 0 < gamma < 1: forcing is positive and stays positive
        assert np.all(sol_power.psi[:, 1:] > 0.0)

    def test_monotone_in_theta(self, params4, stab4):
        sups = []
        for th in (0.05, 0.1, 0.2):
            p = make_params(params4, theta=[th, th])
            sol = solve_riccati(RiccatiSpec(EXP, p, stab4, n=100))
            sups.append(np.max(np.abs(sol.psi)))
        assert sups[0] < sups[1] < sups[2]

    def test_psi_at_interpolation(self, sol_power):
        vals = sol_power.psi_at([0.0, 0.5, 1.0])
        assert vals.shape == (2, 3)
        assert np.allclose(vals[:, 0], 0.0)
        assert np.allclose(vals[:, 2], sol_power.psi[:, -1])

    def test_alpha_one_matches_ode(self, params4):
        # alpha = 1: constant stabilizer, psi' = a + F(psi), psi(0) = 0
        p = make_params(params4, alpha=[1.0, 1.0])
        stabs = make_stabs(p, grid_pts=11)
        sig = [float(tab(0.5)) for tab in stabs]
        for util in (POWER, EXP):
            spec = RiccatiSpec(util, p, stabs, n=200)
            sol = solve_riccati(spec)
            a, lin, quad = _variant_coefficients(spec)
            for i in range(2):
                ode = solve_ivp(
                    lambda t, y: a[i]
                    + lin[i] * sig[i] * y
                    - p.lam[i] * y
                    + quad[i] * (sig[i] * y[0]) ** 2,
                    (0.0, 1.0),
                    [0.0],
                    t_eval=sol.times,
                    rtol=1e-12,
                    atol=1e-14,
                )
                assert np.max(np.abs(sol.psi[i] - ode.y[0])) < 1e-6

    def test_degenerate_distortion_identity(self, params4, stab4):
        # with equal rho, delta * psi_degenerate = psi_general for power utility
        p = make_params(params4, rho=[-0.6, -0.6])
        g = POWER.gamma
        delta = (1.0 - g) / (1.0 - g + g * 0.36)
        sol_g = solve_riccati(RiccatiSpec(POWER, p, stab4, n=150))
        sol_d = solve_riccati(RiccatiSpec(POWER, p, stab4, n=150, degenerate=True))
        assert np.max(np.abs(delta * sol_d.psi - sol_g.psi)) < 1e-10
        # the two exponential variants are literally the same equation
        sol_e1 = solve_riccati(RiccatiSpec(EXP, p, stab4, n=50))
        sol_e2 = solve_riccati(RiccatiSpec(EXP, p, stab4, n=50, degenerate=True))
        assert np.array_equal(sol_e1.psi, sol_e2.psi)


class TestBlowup:
    def test_blowup_raises_with_horizon(self, params4):
        # strong positive leverage and vol-of-vol push the power quadratic
        # supercritical well before T
        p = make_params(
            params4, rho=[0.9, 0.9], nu=[3.0, 3.0], theta=[2.5, 2.5], c=[1.0, 1.0], T=40.0,
        )
        util = UtilitySpec("power", 0.9)
        stabs = make_stabs(p, grid_pts=401)
        spec = RiccatiSpec(util, p, stabs, n=400)
        with pytest.raises(RiccatiBlowup) as exc:
            solve_riccati(spec)
        assert 0.0 < exc.value.t_max < 40.0
        # the refined horizon is usable
        ok = RiccatiSpec(util, dataclasses.replace(p, T=exc.value.t_max), stabs, n=400)
        solve_riccati(ok)


class TestAdamsMarch:
    """The float march against the step-by-step reference, bit for bit."""

    @staticmethod
    def march_args(spec, i, n):
        """The arguments ``solve_riccati`` passes for asset i."""
        p = spec.params
        a, lin, quad = _variant_coefficients(spec)
        sig_rev = _sig_reversed(spec, i, p.T, n)
        return (p.alpha[i], p.lam[i], a[i], lin[i], quad[i], sig_rev, p.T / n, n)

    @pytest.mark.parametrize("n", [2, 3, 200, 1600])
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.9, 0.95])
    def test_matches_reference(self, params4, alpha, n):
        p = make_params(params4, alpha=[alpha, alpha])
        stabs = make_stabs(p, grid_pts=n + 1)
        for util in (POWER, EXP):
            spec = RiccatiSpec(util, p, stabs, n=n)
            for i in range(p.d):
                args = self.march_args(spec, i, n)
                psi, fv, blow = _solve_single(*args)
                psi_ref, fv_ref, blow_ref = adams_march_reference(*args)
                assert blow == blow_ref == -1
                assert np.array_equal(psi, psi_ref) and np.array_equal(fv, fv_ref)

    def test_blowup_matches_reference(self, params4):
        # the power quadratic turns supercritical after 121 and 40 steps
        p = make_params(params4, rho=[0.9, 0.9], nu=[1.0, 1.0], theta=[0.5, 0.5], c=[1.0, 1.0], T=2.0)
        spec = RiccatiSpec(UtilitySpec("power", 0.9), p, make_stabs(p, grid_pts=401), n=400)
        for i in range(p.d):
            args = self.march_args(spec, i, 400)
            psi, fv, blow = _solve_single(*args)
            psi_ref, fv_ref, blow_ref = adams_march_reference(*args)
            assert blow == blow_ref > 10
            assert np.array_equal(psi, psi_ref) and np.array_equal(fv[: blow + 1], fv_ref[: blow + 1])


class TestBoundsAndGates:
    def test_psi_bound_check_passes(self, sol_exp, params4):
        reports = psi_bound_check(sol_exp)
        assert len(reports) == 2
        for i, rep in enumerate(reports):
            assert rep["status"] == "pass"
            assert rep["sup_psi"] <= rep["bound"] * (1 + 1e-10) + 1e-15
            assert rep["lam_bar"] < params4.lam[i]  # rho < 0 lowers it

    def test_psi_bound_check_rejects_power(self, sol_power):
        with pytest.raises(ValueError):
            psi_bound_check(sol_power)

    def test_assumption_constant_reference_value(self, params4, stab4, sol_power):
        # a(2) with rho = (1, 1): |S| = 2, so max(2*4, 2*28*5, 2*5) = 280
        gate = assumption_gate(sol_power, p=2.0)
        s = float(np.sum(params4.rho**2))
        assert gate["a_p"] == pytest.approx(
            max(2 * (2 + s), 2 * 28 * (1 + s * s), 2 * (1 + s * s)), rel=1e-14
        )
        p_unit = make_params(params4, rho=[1.0, 1.0])
        stabs = stab4  # only rho enters a(p)
        sol = solve_riccati(RiccatiSpec(EXP, p_unit, stabs, n=50))
        gate_unit = assumption_gate(sol, p=2.0)
        assert gate_unit["a_p"] == 280.0

    def test_assumption_gate_default_and_explicit(self, params4, sol_power):
        # the gate reports the least moment level a = a(p) * lhs_sup under
        # which the theorem applies; it has no threshold of its own
        gate = assumption_gate(sol_power, p=2.0)
        assert set(gate) == {"a_p", "lhs_sup", "a_required"}
        assert gate["a_required"] == gate["a_p"] * gate["lhs_sup"]
        sup = max(
            float(np.max(
                params4.theta[i] ** 2
                + params4.nu[i] ** 2
                * np.asarray(sol_power.spec.stabilizers[i](sol_power.times)) ** 2
                * sol_power.psi[i][::-1] ** 2
            ))
            for i in range(2)
        )
        assert gate["lhs_sup"] == sup and sup > float(np.max(params4.theta**2))
        assert assumption_gate(sol_power, p=3.0)["a_required"] > gate["a_required"]
        for p in (1.0, 0.5):
            with pytest.raises(ValueError):
                assumption_gate(sol_power, p=p)


class TestConvergence:
    @pytest.mark.parametrize("alpha", [0.9, 0.6])
    def test_interior_order(self, params4, alpha):
        # self-convergence on the interior of [0, T] at rate ~ 1 + alpha,
        # measured against a Richardson extrapolation of the finest two grids
        p = make_params(params4, alpha=[alpha, alpha])
        stabs = make_stabs(p)
        sols = {
            n: solve_riccati(RiccatiSpec(POWER, p, stabs, n=n))
            for n in (200, 400, 800, 1600)
        }
        rate = 2.0 ** (1.0 + alpha)
        # Richardson reference on the n = 800 grid, restricted to each coarser grid
        ref = sols[1600].psi[:, ::2] + (sols[1600].psi[:, ::2] - sols[800].psi) / (rate - 1.0)
        e200 = np.max(np.abs(sols[200].psi[:, 20:181] - ref[:, ::4][:, 20:181]))
        e400 = np.max(np.abs(sols[400].psi[:, 40:361] - ref[:, ::2][:, 40:361]))
        assert e200 / e400 > rate * 0.8
