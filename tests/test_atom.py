import numpy as np
import pytest
from scipy import signal

from hankelssr import Dataset, ImpulseResponse, atom_estimate
from hankelssr.core import predict_outputs
from hankelssr.estimators.atom import atom_dictionary, lasso_kkt_residual
from hankelssr.simulation import fit_metric


class TestAtomDictionary:
    def test_count(self):
        D = atom_dictionary(30)
        assert D.n_atoms == 928  # 32 radii x 29 angles
        assert D.atoms.shape == (30, 928)
        assert D.poles.shape == (928,)

    def test_unit_norms(self):
        D = atom_dictionary(25)
        np.testing.assert_allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)

    def test_all_poles_stable(self):
        D = atom_dictionary(10)
        assert np.abs(D.poles).max() < 1.0
        assert np.abs(D.poles).min() == pytest.approx(0.41)

    def test_recursion_for_pure_imaginary_pole(self):
        # rho = 0.41, theta = pi/2: g(n+1) = -rho^2 g(n-1), cross-checked
        # against direct filtering of an impulse
        T = 24
        D = atom_dictionary(T)
        target = 0.41 * np.exp(1j * np.pi / 2)
        idx = int(np.argmin(np.abs(D.poles - target)))
        atom = D.atoms[:, idx]
        assert abs(D.poles[idx] - target) < 1e-12
        for n in range(1, T - 1):
            assert atom[n + 1] == pytest.approx(-(0.41**2) * atom[n - 1], abs=1e-12)
        imp = np.zeros(T)
        imp[0] = 1.0
        h = signal.lfilter([1.0], [1.0, 0.0, 0.41**2], imp)
        np.testing.assert_allclose(atom, h / np.linalg.norm(h), atol=1e-12)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            atom_dictionary(1)


class TestAtomEstimate:
    def test_recovers_single_isolated_atom(self):
        # atom 819 (rho 0.97) has the weakest correlation to the rest of the
        # dictionary, so exact single-atom data identifies it cleanly
        T, N, idx = 40, 800, 819
        D = atom_dictionary(T)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((N, 1))
        truth = ImpulseResponse(p=1, m=1, T=T, theta=3.0 * D.atoms[:, idx])
        z = predict_outputs(Dataset(u=u, y=np.zeros((N, 1))), truth)
        res = atom_estimate(Dataset(u=u, y=z), T)
        assert fit_metric(res.ir, truth) >= 99.0
        mass = np.abs(res.weights)
        assert mass[idx] / mass.sum() >= 0.95
        assert res.kkt <= 1e-6

    def test_huge_penalty_shrinks_everything(self):
        rng = np.random.default_rng(3)
        d = Dataset(u=rng.standard_normal((120, 1)), y=rng.standard_normal((120, 1)))
        res = atom_estimate(d, 12, mu=1e15)
        np.testing.assert_array_equal(res.weights, 0.0)
        np.testing.assert_array_equal(res.ir.theta, 0.0)

    def test_kkt_residual_helper(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        # w = 0 with a penalty above the activation level is optimal
        mu = 2.0 * np.abs(X.T @ y).max() * 1.01
        assert lasso_kkt_residual(X, y, np.zeros(10), mu) == 0.0
        # random nonzero w violates stationarity
        assert lasso_kkt_residual(X, y, rng.standard_normal(10), mu) > 0.0

    def test_mimo_rejected(self):
        d = Dataset(u=np.ones((30, 1)), y=np.ones((30, 2)))
        with pytest.raises(ValueError, match="SISO"):
            atom_estimate(d, 8)

    def test_noisy_data_still_fits(self):
        T, N = 24, 600
        D = atom_dictionary(T)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((N, 1))
        theta = 2.0 * D.atoms[:, 500] + 1.0 * D.atoms[:, 100]
        truth = ImpulseResponse(p=1, m=1, T=T, theta=theta)
        z = predict_outputs(Dataset(u=u, y=np.zeros((N, 1))), truth)
        y = z + 0.1 * rng.standard_normal((N, 1))
        res = atom_estimate(Dataset(u=u, y=y), T)
        assert fit_metric(res.ir, truth) >= 85.0
