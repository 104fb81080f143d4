"""Sampled integration on the compiled DOP853: repeated and initial sample
times, the step cap across calls, blow-up, and the two-mode simulation
against an independent high-accuracy run of the coupled system."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hillduffing.beam import ModePair, TransferVerdict, simulate
from hillduffing.errors import DomainError, IntegrationFailure
from hillduffing.integrate import solve_sampled


def oscillator(t, y):
    return (y[1], -y[0])


def sampled_quietly(*args, **kwargs):
    """``solve_sampled`` with every warning recorded; fails if any is."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return solve_sampled(*args, **kwargs)
        finally:
            assert [str(w.message) for w in caught] == []


class TestSolveSampled:
    def test_repeated_samples_and_start_point(self):
        ts = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
        out = sampled_quietly(oscillator, 0.0, 1.0, (1.0, 0.0), 1e-12, ts)
        assert out.shape == (7, 2)
        assert np.array_equal(out[0], [1.0, 0.0]) and np.array_equal(out[1], [1.0, 0.0])
        assert np.array_equal(out[2], out[3])
        assert np.array_equal(out[4], out[5]) and np.array_equal(out[4], out[6])
        np.testing.assert_allclose(out[:, 0], np.cos(ts), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], -np.sin(ts), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ts", [np.array([100.0]), np.linspace(0.0, 100.0, 101)])
    def test_step_cap_over_all_calls(self, ts):
        # one long call, or a hundred calls of a few steps each
        with pytest.raises(IntegrationFailure, match="step cap 50"):
            sampled_quietly(oscillator, 0.0, 100.0, (1.0, 0.0), 1e-10, ts, max_steps=50)

    def test_call_start_is_not_a_step(self):
        # y' = 1 is stepped exactly, so each of the 100 calls takes one step
        ts = np.linspace(0.0, 1.0, 101)
        out = sampled_quietly(lambda t, y: (1.0,), 0.0, 1.0, (1.0,), 1e-10, ts, max_steps=100)
        np.testing.assert_allclose(out[:, 0], 1.0 + ts, rtol=0, atol=1e-14)
        with pytest.raises(IntegrationFailure, match="step cap 99"):
            sampled_quietly(lambda t, y: (1.0,), 0.0, 1.0, (1.0,), 1e-10, ts, max_steps=99)

    @pytest.mark.parametrize("ts", [np.array([2.0]), np.linspace(0.0, 2.0, 21)])
    def test_finite_time_blow_up(self, ts):
        # y' = y^2, y(0) = 1 has the solution 1 / (1 - t), infinite at t = 1
        with pytest.raises(IntegrationFailure, match="underflow"):
            sampled_quietly(lambda t, y: (y[0] * y[0],), 0.0, 2.0, (1.0,), 1e-10, ts)

    def test_samples_outside_the_interval(self):
        with pytest.raises(ValueError, match="t_samples"):
            solve_sampled(oscillator, 0.0, 1.0, (1.0, 0.0), 1e-10, np.array([0.5, 1.5]))


def coupled_by_ode(m, n, delta, z_ratio, ts):
    """The two-mode system w'' = -(m^4 + m^2 c) w, z'' = -(n^4 + n^2 c) z,
    c = m^2 w^2 + n^2 z^2, integrated by solve_ivp at tolerance 1e-12."""
    m2, n2 = float(m * m), float(n * n)

    def rhs(t, y):
        c = m2 * y[0] ** 2 + n2 * y[2] ** 2
        return [y[1], -(m2 * m2 + m2 * c) * y[0], y[3], -(n2 * n2 + n2 * c) * y[2]]

    sol = solve_ivp(rhs, (0.0, ts[-1]), [delta, 0.0, z_ratio * delta, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=ts)
    return sol.y.T


class TestSimulateOracle:
    # midpoints of the benchmark's four amplitude ranges, and a (1, 2) run
    # just inside the instability interval
    @pytest.mark.parametrize("m, n, delta", [
        (1, 2, 3.15), (1, 2, 2.7), (2, 3, 4.8), (2, 3, 2.6), (1, 2, 2.94)])
    def test_against_independent_run(self, m, n, delta):
        result = simulate(ModePair(m, n), delta)
        # simulate's internal grid: 24 points per period of the faster
        # mode, at least 4096 and at most 200,000
        fast = max(m, n) ** 2
        n_ts = int(min(200_000, max(4096, 24.0 * result.horizon * fast / (2.0 * math.pi))))
        ts = np.linspace(0.0, result.horizon, n_ts)
        keep = np.linspace(0, n_ts - 1, 4096).round().astype(int)
        assert np.array_equal(result.trajectory[:, 0], ts[keep])

        ref = coupled_by_ode(m, n, delta, result.z_ratio, ts)
        abs_z = np.abs(ref[:, 2])
        exceeded = np.nonzero(abs_z > result.threshold)[0]
        if exceeded.size:
            assert result.verdict is TransferVerdict.ENERGY_TRANSFER
            assert f"{result.onset_time:.6g}" == f"{ts[exceeded[0]]:.6g}"
        else:
            assert result.verdict is TransferVerdict.NO_TRANSFER_OBSERVED
            assert result.onset_time is None
        assert f"{result.max_abs_z:.6g}" == f"{abs_z.max():.6g}"

        # each column within 2e-5 of its largest magnitude
        scale = np.abs(ref[keep]).max(axis=0)
        deviation = np.abs(result.trajectory[:, 1:5] - ref[keep]) / scale
        assert deviation.max() < 2e-5


class TestSimulateValidation:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_must_be_positive(self, samples):
        with pytest.raises(DomainError, match="samples"):
            simulate(ModePair(1, 2), 2.7, horizon=1.0, samples=samples)

    def test_one_sample(self):
        result = simulate(ModePair(1, 2), 2.7, horizon=1.0, samples=1)
        assert result.trajectory.shape == (1, 6)

    def test_tolerance_out_of_range(self):
        with pytest.raises(DomainError, match="tol"):
            simulate(ModePair(1, 2), 2.7, horizon=1.0, tol=1e-3)
