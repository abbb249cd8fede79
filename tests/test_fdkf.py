"""Kalman filter recursion against textbook oracles and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from howlkit.fdkf import (
    ClassicalCovariances,
    CovariancePair,
    FdkfConfig,
    KalmanFilter,
)
from oracles import dense_kalman_run, scalar_kalman_run


def const_cov(cfg, vv, dd):
    return CovariancePair(np.full(cfg.num_bins, vv), np.full((cfg.num_bins, cfg.num_taps), dd))


def run_frames(filt, Y, X, cov):
    """Full recursion over (T, bins) frame arrays with a fixed covariance."""
    traj = np.zeros((len(Y),) + filt.W.shape, dtype=np.complex128)
    for k in range(len(Y)):
        filt.push_reference(X[k])
        s_hat = filt.predict(Y[k])
        K = filt.gain(cov)
        filt.update(K, s_hat, cov)
        traj[k] = filt.W
    return traj


def test_predict_zero_filter_passes_input_through():
    cfg = FdkfConfig(num_bins=8, num_taps=4)
    filt = KalmanFilter(cfg)
    y = np.arange(8) + 1j * np.arange(8)
    filt.push_reference(np.ones(8, dtype=complex))
    np.testing.assert_array_equal(filt.predict(y), y)


def test_predict_zero_reference_passes_input_through():
    cfg = FdkfConfig(num_bins=4, num_taps=3)
    filt = KalmanFilter(cfg)
    filt.W[:] = 1.5 + 0.5j
    y = np.full(4, 2.0 + 1.0j)
    np.testing.assert_array_equal(filt.predict(y), y)


def test_predict_single_bin_arithmetic():
    filt = KalmanFilter(FdkfConfig(num_bins=1, num_taps=1))
    filt.push_reference([1.0 + 0j])
    filt.W[0, 0] = 0.5
    np.testing.assert_allclose(filt.predict([2.0 + 0j]), [1.5 + 0j])


def test_gain_zero_covariance_gives_zero_gain():
    cfg = FdkfConfig(num_bins=4, num_taps=2)
    filt = KalmanFilter(cfg)
    filt.P[:] = 0.0
    filt.push_reference(np.full(4, 1.0 + 1.0j))
    K = filt.gain(const_cov(cfg, 1.0, 0.0))
    np.testing.assert_array_equal(K, np.zeros_like(K))


def test_gain_vanishes_under_huge_observation_noise():
    cfg = FdkfConfig(num_bins=4, num_taps=2)
    filt = KalmanFilter(cfg)
    filt.P[:] = 1.0
    filt.push_reference(np.full(4, 1.0 - 2.0j))
    K = filt.gain(const_cov(cfg, 1e12, 0.0))
    assert np.max(np.abs(K)) < 1e-9


def test_gain_single_bin_arithmetic():
    cfg = FdkfConfig(num_bins=1, num_taps=1, eps=0.0)
    filt = KalmanFilter(cfg)
    filt.P[0, 0] = 1.0
    filt.push_reference([1.0 + 0j])
    K = filt.gain(const_cov(cfg, 1.0, 0.0))
    np.testing.assert_allclose(K, [[0.5 + 0j]])


def test_update_zero_gain_decays_exactly():
    cfg = FdkfConfig(num_bins=3, num_taps=2, A=0.9)
    filt = KalmanFilter(cfg)
    filt.W[:] = 1.0 + 1.0j
    expected_w = filt.W.copy()
    expected_p = filt.P.copy()
    K = np.zeros_like(filt.W)
    for _ in range(100):
        filt.update(K, np.zeros(3, dtype=complex), const_cov(cfg, 0.0, 0.0))
        expected_w = cfg.A * expected_w
        expected_p = (cfg.A * cfg.A) * expected_p
        np.testing.assert_array_equal(filt.W, expected_w)
        np.testing.assert_array_equal(filt.P, expected_p)


def test_update_single_bin_arithmetic():
    cfg = FdkfConfig(num_bins=1, num_taps=1, A=1.0)
    filt = KalmanFilter(cfg)
    K = np.array([[0.5 + 0j]])
    filt.update(K, np.array([1.0 + 0j]), const_cov(cfg, 0.0, 0.0))
    np.testing.assert_allclose(filt.W, [[0.5 + 0j]])


def test_push_reference_ring_semantics():
    filt = KalmanFilter(FdkfConfig(num_bins=1, num_taps=2))
    filt.push_reference([1.0 + 0j])
    filt.push_reference([2.0 + 0j])
    np.testing.assert_array_equal(filt.X_hist[0], [2.0, 1.0])

    one_tap = KalmanFilter(FdkfConfig(num_bins=1, num_taps=1))
    for v in (1.0, 2.0, 3.0):
        one_tap.push_reference([v + 0j])
        np.testing.assert_array_equal(one_tap.X_hist[0], [v])

    deep = KalmanFilter(FdkfConfig(num_bins=1, num_taps=3))
    for v in range(6):
        deep.push_reference([float(v) + 0j])
    np.testing.assert_array_equal(deep.X_hist[0], [5.0, 4.0, 3.0])


def test_classical_covariances_zero_inputs():
    cfg = FdkfConfig(num_bins=4, num_taps=2)
    cov = ClassicalCovariances(cfg)(np.zeros(4, dtype=complex), KalmanFilter(cfg))
    np.testing.assert_array_equal(cov.psi_vv, np.zeros(4))
    np.testing.assert_array_equal(cov.psi_dd, np.zeros((4, 2)))


def test_classical_process_noise_vanishes_at_unit_transition():
    cfg = FdkfConfig(num_bins=2, num_taps=2, A=1.0)
    filt = KalmanFilter(cfg)
    filt.W[:] = 3.0 - 4.0j
    cov = ClassicalCovariances(cfg)(np.ones(2, dtype=complex), filt)
    np.testing.assert_array_equal(cov.psi_dd, np.zeros((2, 2)))


def test_classical_smoother_converges_to_power():
    cfg = FdkfConfig(num_bins=3, num_taps=1, beta=0.9)
    source = ClassicalCovariances(cfg)
    filt = KalmanFilter(cfg)
    s_hat = np.full(3, 2.0 + 0j)
    for _ in range(400):
        cov = source(s_hat, filt)
    np.testing.assert_allclose(cov.psi_vv, np.full(3, 4.0), rtol=1e-12)


def test_matches_scalar_textbook_kalman():
    cfg = FdkfConfig(num_bins=3, num_taps=1, A=0.97, alpha=0.5, p_init=1e-2, eps=0.0)
    rng = np.random.default_rng(0)
    T = 200
    Y = rng.standard_normal((T, 3)) + 1j * rng.standard_normal((T, 3))
    X = rng.standard_normal((T, 3)) + 1j * rng.standard_normal((T, 3))
    traj = run_frames(KalmanFilter(cfg), Y, X, const_cov(cfg, 0.3, 0.01))
    for b in range(3):
        oracle = scalar_kalman_run(Y[:, b], X[:, b], 0.3, 0.01, cfg.A, cfg.alpha, cfg.p_init)
        np.testing.assert_allclose(traj[:, b, 0], oracle, rtol=1e-12, atol=1e-14)


def test_matches_dense_matrix_kalman_two_taps():
    # Reference active every other frame, so each frame excites exactly one
    # tap of the two-frame history and the dense covariance stays diagonal —
    # the regime where the per-tap recursion is exact rather than approximate.
    cfg = FdkfConfig(num_bins=4, num_taps=2, A=0.98, alpha=0.5, p_init=1e-2, eps=0.0)
    rng = np.random.default_rng(1)
    T = 50
    Y = rng.standard_normal((T, 4)) + 1j * rng.standard_normal((T, 4))
    X = rng.standard_normal((T, 4)) + 1j * rng.standard_normal((T, 4))
    X[1::2] = 0.0
    traj = run_frames(KalmanFilter(cfg), Y, X, const_cov(cfg, 0.2, 0.005))
    for b in range(4):
        oracle = dense_kalman_run(Y[:, b], X[:, b], 2, 0.2, 0.005, cfg.A, cfg.alpha, cfg.p_init)
        np.testing.assert_allclose(traj[:, b], oracle, rtol=1e-9, atol=1e-12)


def test_posterior_residual_closed_form():
    # With zero observation noise and one tap the update leaves exactly a
    # (1 - A) fraction of the observation unexplained.
    cfg = FdkfConfig(num_bins=5, num_taps=1, A=0.95, eps=0.0)
    rng = np.random.default_rng(2)
    filt = KalmanFilter(cfg)
    filt.W[:, 0] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    Y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    X = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cov = const_cov(cfg, 0.0, 0.0)
    filt.push_reference(X)
    s_hat = filt.predict(Y)
    filt.update(filt.gain(cov), s_hat, cov)
    residual = Y - X * filt.W[:, 0]
    np.testing.assert_allclose(residual, (1.0 - cfg.A) * Y, rtol=1e-12, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_covariance_stays_nonnegative_under_arbitrary_gains(seed):
    cfg = FdkfConfig(num_bins=4, num_taps=3)
    filt = KalmanFilter(cfg)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        filt.X_hist = 3.0 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        K = 3.0 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        s_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cov = CovariancePair(rng.uniform(0, 1, 4), rng.uniform(0, 0.1, (4, 3)))
        filt.update(K, s_hat, cov)
        assert np.all(filt.P >= 0.0)
        assert np.all(np.isfinite(filt.P))


def test_covariance_nonnegative_long_realistic_run():
    cfg = FdkfConfig(num_bins=4, num_taps=3, A=0.99)
    filt = KalmanFilter(cfg)
    rng = np.random.default_rng(3)
    for k in range(10_000):
        filt.push_reference(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        s_hat = filt.predict(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        cov = CovariancePair(rng.uniform(0, 0.5, 4), rng.uniform(0, 0.01, (4, 3)))
        filt.update(filt.gain(cov), s_hat, cov)
        if k % 500 == 0:
            assert np.all(filt.P >= 0.0)
    assert np.all(filt.P >= 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FdkfConfig(A=0.0)
    with pytest.raises(ValueError):
        FdkfConfig(A=1.5)
    with pytest.raises(ValueError):
        FdkfConfig(alpha=0.0)
    with pytest.raises(ValueError):
        FdkfConfig(num_taps=0)
    with pytest.raises(ValueError):
        FdkfConfig(p_init=0.0)
    with pytest.raises(ValueError):
        FdkfConfig(eps=-1e-3)
    with pytest.raises(ValueError):
        FdkfConfig(beta=1.0)


def test_frame_shape_errors():
    filt = KalmanFilter(FdkfConfig(num_bins=4, num_taps=2))
    with pytest.raises(ValueError, match="shape"):
        filt.push_reference(np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        filt.predict(np.zeros(3, dtype=complex))


def test_negative_covariance_input_rejected():
    with pytest.raises(ValueError, match="psi_vv must be nonnegative"):
        CovariancePair(np.array([-1.0]), np.zeros((1, 1)))
    # a non-finite covariance is a numeric failure, not a bad input value
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ArithmeticError, match="psi_vv must be finite"):
            CovariancePair(np.array([0.5, bad]), np.zeros((1, 1)))
        with pytest.raises(ArithmeticError, match="psi_dd must be finite"):
            CovariancePair(np.array([0.5]), np.array([[0.1, bad]]))
    with pytest.raises(ValueError, match="psi_dd must be nonnegative"):
        CovariancePair(np.array([0.5]), np.array([[0.1, -1e-12]]))
    # a non-finite value wins over a negative one, as before
    with pytest.raises(ArithmeticError, match="psi_vv must be finite"):
        CovariancePair(np.array([-1.0, np.nan]), np.zeros((1, 1)))
    CovariancePair(np.zeros(0), np.zeros((0, 1)))
    CovariancePair(np.array([0.0, -0.0, 1e300]), np.zeros((1, 1)))
