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


def const_cov(cfg, bins, vv, dd):
    return CovariancePair(np.full(bins, vv), np.full((bins, cfg.num_taps), dd))


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
    cfg, bins = FdkfConfig(num_taps=4), 8
    filt = KalmanFilter(cfg, bins)
    y = np.arange(8) + 1j * np.arange(8)
    filt.push_reference(np.ones(8, dtype=complex))
    np.testing.assert_array_equal(filt.predict(y), y)


def test_predict_zero_reference_passes_input_through():
    cfg, bins = FdkfConfig(num_taps=3), 4
    filt = KalmanFilter(cfg, bins)
    filt.W[:] = 1.5 + 0.5j
    y = np.full(4, 2.0 + 1.0j)
    np.testing.assert_array_equal(filt.predict(y), y)


def test_predict_single_bin_arithmetic():
    filt = KalmanFilter(FdkfConfig(num_taps=1), 1)
    filt.push_reference([1.0 + 0j])
    filt.W[0, 0] = 0.5
    np.testing.assert_allclose(filt.predict([2.0 + 0j]), [1.5 + 0j])


def test_gain_zero_covariance_gives_zero_gain():
    cfg, bins = FdkfConfig(num_taps=2), 4
    filt = KalmanFilter(cfg, bins)
    filt.P[:] = 0.0
    filt.push_reference(np.full(4, 1.0 + 1.0j))
    K = filt.gain(const_cov(cfg, bins, 1.0, 0.0))
    np.testing.assert_array_equal(K, np.zeros_like(K))


def test_gain_vanishes_under_huge_observation_noise():
    cfg, bins = FdkfConfig(num_taps=2), 4
    filt = KalmanFilter(cfg, bins)
    filt.P[:] = 1.0
    filt.push_reference(np.full(4, 1.0 - 2.0j))
    K = filt.gain(const_cov(cfg, bins, 1e12, 0.0))
    assert np.max(np.abs(K)) < 1e-9


def test_gain_single_bin_arithmetic():
    cfg, bins = FdkfConfig(num_taps=1, eps=0.0), 1
    filt = KalmanFilter(cfg, bins)
    filt.P[0, 0] = 1.0
    filt.push_reference([1.0 + 0j])
    K = filt.gain(const_cov(cfg, bins, 1.0, 0.0))
    np.testing.assert_allclose(K, [[0.5 + 0j]])


def test_update_zero_gain_decays_exactly():
    cfg, bins = FdkfConfig(num_taps=2, A=0.9), 3
    filt = KalmanFilter(cfg, bins)
    filt.W[:] = 1.0 + 1.0j
    expected_w = filt.W.copy()
    expected_p = filt.P.copy()
    K = np.zeros_like(filt.W)
    for _ in range(100):
        filt.update(K, np.zeros(3, dtype=complex), const_cov(cfg, bins, 0.0, 0.0))
        expected_w = cfg.A * expected_w
        expected_p = (cfg.A * cfg.A) * expected_p
        np.testing.assert_array_equal(filt.W, expected_w)
        np.testing.assert_array_equal(filt.P, expected_p)


def test_update_single_bin_arithmetic():
    cfg, bins = FdkfConfig(num_taps=1, A=1.0), 1
    filt = KalmanFilter(cfg, bins)
    K = np.array([[0.5 + 0j]])
    filt.update(K, np.array([1.0 + 0j]), const_cov(cfg, bins, 0.0, 0.0))
    np.testing.assert_allclose(filt.W, [[0.5 + 0j]])


def test_push_reference_ring_semantics():
    filt = KalmanFilter(FdkfConfig(num_taps=2), 1)
    filt.push_reference([1.0 + 0j])
    filt.push_reference([2.0 + 0j])
    np.testing.assert_array_equal(filt.X_hist[0], [2.0, 1.0])

    one_tap = KalmanFilter(FdkfConfig(num_taps=1), 1)
    for v in (1.0, 2.0, 3.0):
        one_tap.push_reference([v + 0j])
        np.testing.assert_array_equal(one_tap.X_hist[0], [v])

    deep = KalmanFilter(FdkfConfig(num_taps=3), 1)
    for v in range(6):
        deep.push_reference([float(v) + 0j])
    np.testing.assert_array_equal(deep.X_hist[0], [5.0, 4.0, 3.0])


def test_reference_power_is_computed_once_per_frame():
    filt = KalmanFilter(FdkfConfig(num_taps=4), 3, rows=2)
    rng = np.random.default_rng(8)
    for _ in range(6):
        old = filt.X_pow
        filt.push_reference(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        assert filt.X_pow is not old  # tapes keep the previous array
        want = filt.X_hist.real**2 + filt.X_hist.imag**2
        assert filt.X_pow.tobytes() == want.tobytes()
    filt.keep([1])
    assert filt.X_pow.tobytes() == (filt.X_hist.real**2 + filt.X_hist.imag**2).tobytes()


def test_gain_reciprocal_equals_division():
    cfg, bins = FdkfConfig(num_taps=3), 5
    filt = KalmanFilter(cfg, bins)
    rng = np.random.default_rng(9)
    for _ in range(4):
        filt.push_reference(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    filt.P = rng.uniform(0.0, 2.0, (5, 3))
    cov = const_cov(cfg, bins, 0.3, 0.0)
    K = filt.gain(cov)
    x = filt.X_hist
    denom = np.sum((x.real**2 + x.imag**2) * filt.P, axis=-1) + 0.3 + cfg.eps
    np.testing.assert_array_equal(K, (filt.P * np.conj(x)) / denom[..., None])
    np.testing.assert_array_equal(filt.denom, denom)
    np.testing.assert_array_equal(filt.inv_denom, 1.0 / denom)


def test_update_broadcasts_a_per_bin_process_noise_column():
    cfg, bins = FdkfConfig(num_taps=3), 4
    rng = np.random.default_rng(10)
    column = rng.uniform(0.0, 0.01, (2, 4, 1))
    column[0, 1, 0] = 0.0
    filters = [KalmanFilter(cfg, bins, rows=2) for _ in range(2)]
    for filt in filters:
        filt.W = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        filt.push_reference(np.full((2, 4), 1.0 - 0.5j))
    filters[1].W, filters[1].X_hist = filters[0].W.copy(), filters[0].X_hist.copy()
    K = 0.9 * rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    s_hat = rng.standard_normal((2, 4)) + 0j
    vv = np.full((2, 4), 0.1)
    filters[0].update(K, s_hat, CovariancePair(vv, column))
    filters[1].update(K, s_hat, CovariancePair(vv, np.repeat(column, 3, axis=-1)))
    for name in ("W", "P", "clamps"):
        assert getattr(filters[0], name).tobytes() == getattr(filters[1], name).tobytes()
    with pytest.raises(ValueError, match="psi_dd must be nonnegative"):
        CovariancePair(vv, -column)


def test_classical_covariances_zero_inputs():
    cfg, bins = FdkfConfig(num_taps=2), 4
    cov = ClassicalCovariances(cfg, bins)(np.zeros(4, dtype=complex), KalmanFilter(cfg, bins))
    np.testing.assert_array_equal(cov.psi_vv, np.zeros(4))
    np.testing.assert_array_equal(cov.psi_dd, np.zeros((4, 2)))


def test_classical_process_noise_vanishes_at_unit_transition():
    cfg, bins = FdkfConfig(num_taps=2, A=1.0), 2
    filt = KalmanFilter(cfg, bins)
    filt.W[:] = 3.0 - 4.0j
    cov = ClassicalCovariances(cfg, bins)(np.ones(2, dtype=complex), filt)
    np.testing.assert_array_equal(cov.psi_dd, np.zeros((2, 2)))


def test_classical_smoother_converges_to_power():
    cfg, bins = FdkfConfig(num_taps=1, beta=0.9), 3
    source = ClassicalCovariances(cfg, bins)
    filt = KalmanFilter(cfg, bins)
    s_hat = np.full(3, 2.0 + 0j)
    for _ in range(400):
        cov = source(s_hat, filt)
    np.testing.assert_allclose(cov.psi_vv, np.full(3, 4.0), rtol=1e-12)


def test_matches_scalar_textbook_kalman():
    cfg, bins = FdkfConfig(num_taps=1, A=0.97, alpha=0.5, p_init=1e-2, eps=0.0), 3
    rng = np.random.default_rng(0)
    T = 200
    Y = rng.standard_normal((T, 3)) + 1j * rng.standard_normal((T, 3))
    X = rng.standard_normal((T, 3)) + 1j * rng.standard_normal((T, 3))
    traj = run_frames(KalmanFilter(cfg, bins), Y, X, const_cov(cfg, bins, 0.3, 0.01))
    for b in range(3):
        oracle = scalar_kalman_run(Y[:, b], X[:, b], 0.3, 0.01, cfg.A, cfg.alpha, cfg.p_init)
        np.testing.assert_allclose(traj[:, b, 0], oracle, rtol=1e-12, atol=1e-14)


def test_matches_dense_matrix_kalman_two_taps():
    # Reference active every other frame, so each frame excites exactly one
    # tap of the two-frame history and the dense covariance stays diagonal —
    # the regime where the per-tap recursion is exact rather than approximate.
    cfg, bins = FdkfConfig(num_taps=2, A=0.98, alpha=0.5, p_init=1e-2, eps=0.0), 4
    rng = np.random.default_rng(1)
    T = 50
    Y = rng.standard_normal((T, 4)) + 1j * rng.standard_normal((T, 4))
    X = rng.standard_normal((T, 4)) + 1j * rng.standard_normal((T, 4))
    X[1::2] = 0.0
    traj = run_frames(KalmanFilter(cfg, bins), Y, X, const_cov(cfg, bins, 0.2, 0.005))
    for b in range(4):
        oracle = dense_kalman_run(Y[:, b], X[:, b], 2, 0.2, 0.005, cfg.A, cfg.alpha, cfg.p_init)
        np.testing.assert_allclose(traj[:, b], oracle, rtol=1e-9, atol=1e-12)


def test_posterior_residual_closed_form():
    # With zero observation noise and one tap the update leaves exactly a
    # (1 - A) fraction of the observation unexplained.
    cfg, bins = FdkfConfig(num_taps=1, A=0.95, eps=0.0), 5
    rng = np.random.default_rng(2)
    filt = KalmanFilter(cfg, bins)
    filt.W[:, 0] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    Y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    X = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cov = const_cov(cfg, bins, 0.0, 0.0)
    filt.push_reference(X)
    s_hat = filt.predict(Y)
    filt.update(filt.gain(cov), s_hat, cov)
    residual = Y - X * filt.W[:, 0]
    np.testing.assert_allclose(residual, (1.0 - cfg.A) * Y, rtol=1e-12, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_covariance_stays_nonnegative_under_arbitrary_gains(seed):
    cfg, bins = FdkfConfig(num_taps=3), 4
    filt = KalmanFilter(cfg, bins)
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
    cfg, bins = FdkfConfig(num_taps=3, A=0.99), 4
    filt = KalmanFilter(cfg, bins)
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
    filt = KalmanFilter(FdkfConfig(num_taps=2), 4)
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
