import numpy as np
import pytest
import scipy
from scipy import linalg

from hankelssr import Dataset, ImpulseResponse, read_dataset_csv, write_dataset_csv
from hankelssr.core import (
    _cholesky,
    _solve_lower,
    blas_threads,
    build_hankel,
    choose_hankel_shape,
    make_hankel_spec,
    predict_outputs,
    regressor_block,
    surrogate_weights,
)
from hankelssr.estimators import atom, ss, ssr
from oracles import (
    build_regressor,
    hankel_row_sources,
    multiplicities,
    numerical_rank,
    stack_outputs,
    vec_hankel_t,
)


class TestImpulseResponse:
    def test_layout_bijection(self):
        rng = np.random.default_rng(0)
        for p, m, T in [(1, 1, 4), (2, 1, 3), (3, 2, 5)]:
            theta = rng.standard_normal(T * m * p)
            ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
            for i in range(p):
                for j in range(m):
                    for k in range(1, T + 1):
                        flat = (i * m + j) * T + (k - 1)
                        assert ir.coefficient(k)[i, j] == theta[flat]
                        assert ir.channel(i, j)[k - 1] == theta[flat]

    def test_blocks_round_trip(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((6, 2, 3))
        ir = ImpulseResponse.from_blocks(g)
        assert ir.theta.size == 6 * 2 * 3
        np.testing.assert_array_equal(ir.blocks(), g)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ImpulseResponse(p=2, m=1, T=3, theta=np.zeros(5))


class TestStackOutputs:
    def test_direct_layout(self):
        d = Dataset(u=np.zeros((2, 1)), y=[[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(stack_outputs(d), [1.0, 2.0, 3.0, 4.0])

    def test_single_output(self):
        y = np.arange(5.0)
        d = Dataset(u=np.zeros((5, 1)), y=y)
        np.testing.assert_array_equal(stack_outputs(d), y)

    def test_index_bijection(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((3, 2))
        d = Dataset(u=np.zeros((3, 1)), y=y)
        Y = stack_outputs(d)
        for t in range(3):
            for i in range(2):
                assert Y[i * 3 + t] == y[t, i]


class TestBuildRegressor:
    def test_impulse_input(self):
        d = Dataset(u=[1.0, 0.0, 0.0], y=np.zeros(3))
        phi = regressor_block(d.u, 2)
        np.testing.assert_array_equal(phi, [[0, 0], [1, 0], [0, 1]])

    def test_unit_delay(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(6)
        d = Dataset(u=u, y=np.zeros(6))
        theta = np.zeros(4)
        theta[0] = 1.0  # g(1) = 1: pure one-step delay
        ir = ImpulseResponse(p=1, m=1, T=4, theta=theta)
        yhat = predict_outputs(d, ir)[:, 0]
        np.testing.assert_allclose(yhat, np.concatenate([[0.0], u[:-1]]))

    def test_against_convolution_oracle(self):
        rng = np.random.default_rng(4)
        N, m, T, p = 4, 2, 3, 2
        u = rng.standard_normal((N, m))
        theta = rng.standard_normal(T * m * p)
        ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
        d = Dataset(u=u, y=np.zeros((N, p)))

        def conv_oracle(t, i):  # y_i(t) = sum_k sum_j g(k)[i,j] u_j(t-k), 1-based t
            total = 0.0
            for k in range(1, T + 1):
                if t - k >= 1:
                    total += float(ir.coefficient(k)[i] @ u[t - k - 1])
            return total

        Phi = build_regressor(d, T)
        assert Phi.shape == (N * p, T * m * p)
        Y = Phi @ theta
        for i in range(p):
            for t in range(1, N + 1):
                assert Y[i * N + t - 1] == pytest.approx(conv_oracle(t, i), abs=1e-12)

    def test_phi_theta_matches_predictions(self):
        rng = np.random.default_rng(5)
        N, m, p, T = 9, 2, 3, 4
        u = rng.standard_normal((N, m))
        theta = rng.standard_normal(T * m * p)
        ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
        d = Dataset(u=u, y=np.zeros((N, p)))
        np.testing.assert_allclose(
            build_regressor(d, T) @ theta,
            predict_outputs(d, ir).flatten(order="F"),
            atol=1e-13,
        )


class TestChooseHankelShape:
    @pytest.mark.parametrize(
        "T,p,m,expected",
        [(3, 1, 1, (2, 2)), (80, 3, 1, (20, 61)), (50, 3, 1, (13, 38))],
    )
    def test_known_shapes(self, T, p, m, expected):
        assert choose_hankel_shape(T, p, m) == expected

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            T = int(rng.integers(2, 60))
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            r, c = choose_hankel_shape(T, p, m)
            scores = {rr: abs(p * rr - m * (T + 1 - rr)) for rr in range(1, T + 1)}
            best = min(scores.values())
            assert abs(p * r - m * c) == best
            # tie-break toward larger r
            assert r == max(rr for rr, s in scores.items() if s == best)

    def test_consistency_over_range(self):
        for T in range(2, 201):
            r, c = choose_hankel_shape(T, 3, 1)
            assert r + c - 1 == T
            assert choose_hankel_shape(T, 3, 1) == (r, c)


class TestBuildHankel:
    def test_siso_example(self):
        ir = ImpulseResponse(p=1, m=1, T=3, theta=[1.0, 2.0, 3.0])
        spec = make_hankel_spec(3, 1, 1)
        np.testing.assert_array_equal(build_hankel(ir, spec), [[1, 2], [2, 3]])

    def test_geometric_sequence_is_rank_one(self):
        T = 9
        theta = 0.6 ** np.arange(1, T + 1)
        ir = ImpulseResponse(p=1, m=1, T=T, theta=theta)
        spec = make_hankel_spec(T, 1, 1)
        s = np.linalg.svd(build_hankel(ir, spec), compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_vec_transpose_is_p_theta(self):
        rng = np.random.default_rng(7)
        for p, m, T in [(1, 1, 5), (2, 1, 3), (3, 2, 8)]:
            theta = rng.standard_normal(T * m * p)
            ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
            spec = make_hankel_spec(T, p, m)
            H = build_hankel(ir, spec)
            np.testing.assert_array_equal(
                H.T.flatten(order="F"), vec_hankel_t(spec, theta)
            )


class TestVectorizationMap:
    def test_siso_t3_matrix(self):
        # rows of the 0/1 map [[1,0,0],[0,1,0],[0,1,0],[0,0,1]]
        spec = make_hankel_spec(3, 1, 1, r=2, c=2)
        np.testing.assert_array_equal(hankel_row_sources(spec), [0, 1, 1, 2])

    def test_column_sums_are_multiplicities(self):
        spec = make_hankel_spec(3, 1, 1)
        np.testing.assert_array_equal(multiplicities(spec), [1, 2, 1])
        T = 7
        spec = make_hankel_spec(T, 1, 1)
        mult = [min(k, T - k + 1, spec.r, spec.c) for k in range(1, T + 1)]
        np.testing.assert_array_equal(multiplicities(spec), mult)

    def test_mimo_cross_check_with_build_hankel(self):
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(2 * 1 * 3)
        ir = ImpulseResponse(p=2, m=1, T=3, theta=theta)
        spec = make_hankel_spec(3, 2, 1, r=2, c=2)
        H = build_hankel(ir, spec)
        np.testing.assert_array_equal(vec_hankel_t(spec, theta), H.T.flatten(order="F"))

    def test_random_instances_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            T = int(rng.integers(2, 13))
            spec = make_hankel_spec(T, p, m)
            theta = rng.standard_normal(T * m * p)
            ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
            H = build_hankel(ir, spec)
            np.testing.assert_array_equal(
                vec_hankel_t(spec, theta), H.T.flatten(order="F")
            )
            # one selected coefficient per Hankel entry, every coefficient used
            assert hankel_row_sources(spec).shape == (H.size,)
            assert multiplicities(spec).sum() == H.size
            assert (multiplicities(spec) >= 1).all()


class TestSurrogateWeights:
    def test_white_data_whitens_to_identity(self):
        rng = np.random.default_rng(10)
        N = 20000
        d = Dataset(u=rng.standard_normal((N, 1)), y=rng.standard_normal((N, 2)))
        W1, W2 = surrogate_weights(d, r=3, c=4)
        assert np.abs(W1 - np.eye(4)).max() < 0.1
        assert np.abs(W2 - np.eye(6)).max() < 0.1

    def test_identity_mode(self):
        spec = make_hankel_spec(8, 2, 1, r=4, c=5)
        np.testing.assert_array_equal(spec.W1, np.eye(5))
        np.testing.assert_array_equal(spec.W2, np.eye(8))

    def test_weights_invertible(self):
        rng = np.random.default_rng(11)
        d = Dataset(u=rng.standard_normal((300, 2)), y=rng.standard_normal((300, 2)))
        W1, W2 = surrogate_weights(d, r=3, c=3)
        for W in (W1, W2):
            assert np.all(np.isfinite(W))
            assert abs(np.linalg.det(W)) > 0

    def test_too_few_samples_is_degenerate(self):
        d = Dataset(u=np.ones((10, 1)), y=np.ones((10, 3)))
        with pytest.raises(ValueError, match="degenerate excitation"):
            surrogate_weights(d, r=5, c=5)

    def test_constant_data_is_degenerate(self):
        d = Dataset(u=np.zeros((200, 1)), y=np.zeros((200, 1)))
        with pytest.raises(ValueError, match="degenerate excitation"):
            surrogate_weights(d, r=3, c=3)


class TestNumericalRank:
    def test_exact_low_rank(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 9))
        assert numerical_rank(a) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        d = Dataset(u=rng.standard_normal((7, 2)), y=rng.standard_normal((7, 3)))
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.u, d.u)
        np.testing.assert_array_equal(back.y, d.y)
        header = path.read_text().splitlines()[0]
        assert header == "t,u1,u2,y1,y2,y3"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,u1,y1\n1,0.5,1.0\n2,0.1,nan\n3,0.2,0.3\n")
        with pytest.raises(ValueError, match="y1 at sample 2 is nan"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("1,0.5", "line 2 has 2 fields, expected 3"), ("1,0.5,abc", "y1 on line 2 is 'abc'")],
    )
    def test_malformed_row_names_line_and_column(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,u1,y1\n{row}\n2,0.1,0.3\n")
        with pytest.raises(ValueError, match=message):
            read_dataset_csv(path)


class TestDatasetValidation:
    def test_non_finite_input_names_column_and_sample(self):
        u = np.zeros((5, 2))
        u[2, 1] = np.inf
        with pytest.raises(ValueError, match="u2 at sample 3 is inf"):
            Dataset(u=u, y=np.zeros((5, 1)))

    def test_non_finite_output_rejected(self):
        y = np.zeros(4)
        y[0] = -np.inf
        with pytest.raises(ValueError, match="y1 at sample 1 is -inf"):
            Dataset(u=np.zeros(4), y=y)


class TestOneBlasThread:
    def test_every_fit_runs_with_one_blas_thread(self, monkeypatch):
        for pkg in (np, scipy):
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
            if blas != "scipy-openblas":
                pytest.skip(f"{pkg.__name__} uses {blas}, not the bundled scipy-openblas")
        assert set(blas_threads()) == {"numpy", "scipy"}
        rng = np.random.default_rng(40)
        d = Dataset(u=rng.standard_normal((40, 1)), y=rng.standard_normal((40, 1)))
        fits = [
            (ss, lambda: ss.ss_estimate(d, 1, 6)),
            (ssr, lambda: ssr.ssr_fit(d, 6, 1, ssr.SsrOptions(max_iter=1))),
            (atom, lambda: atom.atom_estimate(d, 6, mu=10.0)),
        ]

        def fail(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        caller = blas_threads(2)
        try:
            for module, fit in fits:
                # each module's own regressor_block runs inside its fit, for
                # ssr after the ss warm start has returned
                seen = []

                def probe(*args, _original=module.regressor_block, **kwargs):
                    seen.append(blas_threads())
                    return _original(*args, **kwargs)

                with monkeypatch.context() as patch:
                    patch.setattr(module, "regressor_block", probe)
                    fit()
                    assert seen and all(c == {"numpy": 1, "scipy": 1} for c in seen)
                    assert blas_threads() == {"numpy": 2, "scipy": 2}
                    patch.setattr(module, "regressor_block", fail)
                    with pytest.raises(RuntimeError, match="synthetic failure"):
                        fit()
                    assert blas_threads() == {"numpy": 2, "scipy": 2}
        finally:
            blas_threads(caller)


class TestCholeskyPrimitive:
    @staticmethod
    def _spd(n, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        return a @ a.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 7, 60, 240])
    def test_factor_and_solves_match_numpy_and_scipy(self, n):
        # the in-place dpotrf factor against numpy's Cholesky, its
        # log-determinant against slogdet, and the dtrtrs solves against
        # solve_triangular, all to 1e-13 relative
        M = self._spd(n, n)
        ref = np.linalg.cholesky(M)
        buf = M.copy()
        C, logdet = _cholesky(buf)
        assert np.shares_memory(C, buf)  # factored where it lay, no copy
        assert np.linalg.norm(C - ref) <= 1e-13 * np.linalg.norm(ref)
        assert not np.any(np.triu(C, 1))
        assert logdet == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-13)
        B = np.random.default_rng(n + 1).standard_normal((n, 3))
        for trans in (0, 1):
            for b in (B, B[:, 0]):
                expected = linalg.solve_triangular(ref, b, lower=True, trans=trans)
                found = _solve_lower(C, b, trans=trans)
                assert found.shape == b.shape
                assert np.linalg.norm(found - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [1, 7, 60, 240])
    def test_non_positive_definite_and_nan_raise(self, n):
        M = self._spd(n, n)
        indefinite = M.copy()
        indefinite[n - 1, n - 1] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(indefinite)
        for i, j in {(0, 0), (n - 1, 0), (n - 1, n - 1)}:
            bad = M.copy()
            bad[i, j] = bad[j, i] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                _cholesky(bad)
        bad = M.copy()
        bad[0, 0] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(bad)
