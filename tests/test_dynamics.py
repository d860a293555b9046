import math

import numpy as np
import pytest

from conftest import mat_close, quat_close
from qflag.dynamics import (StateVector, cocycle_residual, column_norm_sq,
                            evolve, geodesic_block, geodesic_generator,
                            random_state, time_reversal_residual,
                            transition_split)
from qflag.errors import (DimensionMismatch, NotSkewAdjoint,
                          NotUnitQuaternion, PartitionMismatch)
from qflag.quaternion import (Quaternion, random_quaternion,
                              random_unit_quaternion, sq_norms)
from qflag.quatmat import (GroupElement, QuatMatrix, expm, random_quatmat,
                           random_skew_adjoint)

rng = np.random.default_rng(707)


def block_diagonal_generator(n, k):
    gen = random_skew_adjoint(rng, n)
    gen.a[:k, k:, :] = 0.0
    gen.a[k:, :k, :] = 0.0
    return gen


def unit_draws(count):
    return np.array([random_unit_quaternion(rng).to_array()
                     for _ in range(count)])


def column(psi):
    return QuatMatrix(psi.a[..., None, :])


def test_evolve_at_zero_time():
    gen = random_skew_adjoint(rng, 3)
    psi = random_state(rng, 3, 1)
    out = evolve(gen, psi, 0.0)
    assert np.sqrt(sq_norms(out.a - psi.a)).max() < 1e-14


def test_random_state_reads_the_stream_of_single_draws():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    psi = random_state(a, 5, 2)
    singles = np.array([random_quaternion(b).to_array() for _ in range(5)])
    assert np.array_equal(psi.a, singles)
    assert a.normal() == b.normal()


def test_evolve_batch_equals_the_singles():
    gens = QuatMatrix(np.stack([random_skew_adjoint(rng, 3).a
                                for _ in range(4)]))
    psi = random_state(rng, 3, 1)
    times = np.linspace(-2.0, 7.0, 5)
    # generators on axis 0, times on axis 1
    moved = evolve(QuatMatrix(gens.a[:, None]), psi, times)
    assert moved.a.shape == (4, 5, 3, 4)
    for g in range(4):
        for i, t in enumerate(times):
            single = evolve(QuatMatrix(gens.a[g]), psi, float(t))
            assert np.array_equal(moved.a[g, i], single.a)
            assert moved.norm_sq()[g, i] == single.norm_sq()
    # a batch of states under one generator and time
    states = StateVector(moved.a[:, 0], 1)
    later = evolve(QuatMatrix(gens.a[0]), states, 1.5)
    for g in range(4):
        single = evolve(QuatMatrix(gens.a[0]),
                        StateVector(moved.a[g, 0], 1), 1.5)
        assert np.array_equal(later.a[g], single.a)


def test_norm_conservation():
    gen = random_skew_adjoint(rng, 3)
    psi = random_state(rng, 3, 1)
    for t in np.linspace(0.0, 10.0, 100):
        assert abs(evolve(gen, psi, t).norm_sq() - psi.norm_sq()) < 1e-9


def test_block_diagonal_generator_conserves_parts():
    gen = block_diagonal_generator(3, 1)
    psi = random_state(rng, 3, 1)
    moved = evolve(gen, psi, np.linspace(0.0, 10.0, 50))
    assert np.abs(moved.system_norm_sq() - psi.system_norm_sq()).max() < 1e-9
    surroundings = [column_norm_sq(x.a[..., x.split:, :]) for x in (moved, psi)]
    assert np.abs(surroundings[0] - surroundings[1]).max() < 1e-9


def test_norms_add_rows_in_order():
    # rows of squared norm 1, then eight of 2^-53: added left to right, as a
    # Python loop adds them, each 2^-53 rounds away; numpy's pairwise sum of
    # nine terms would add the small ones first and end above 1
    a = np.zeros((9, 4))
    a[0, 0] = 1.0
    a[1:, :2] = 2.0 ** -27
    psi = StateVector(a, 1)
    assert psi.norm_sq() == sum(float(q) for q in sq_norms(a)) == 1.0
    assert psi.system_norm_sq() == 1.0
    assert column_norm_sq(psi.a[1:]) == 8 * 2.0 ** -53
    assert StateVector(np.zeros((2, 0, 4)), 0).norm_sq().shape == (2,)


def test_a_single_state_norm_is_numpys_scalar():
    psi = random_state(rng, 3, 1)
    assert type(psi.norm_sq()) is np.float64
    assert type(psi.system_norm_sq()) is np.float64
    batch = StateVector(np.stack([psi.a] * 4).reshape(2, 2, 3, 4), 1)
    assert batch.norm_sq().shape == batch.system_norm_sq().shape == (2, 2)


def test_evolve_gates():
    psi = random_state(rng, 3, 1)
    with pytest.raises(NotSkewAdjoint):
        evolve(random_quatmat(rng, 3, 3), psi, 1.0)
    with pytest.raises(PartitionMismatch):
        evolve(random_skew_adjoint(rng, 4), psi, 1.0)


def test_batches_that_do_not_broadcast_fail():
    local = np.random.default_rng(37)
    gens = QuatMatrix(np.stack([random_skew_adjoint(local, 3).a
                                for _ in range(3)]))
    times = np.linspace(0.0, 1.0, 5)
    for call in (lambda: evolve(gens, random_state(local, 3, 1), times),
                 lambda: cocycle_residual(gens, times, 0.5),
                 lambda: time_reversal_residual(gens, times)):
        with pytest.raises(DimensionMismatch):
            call()


def test_cocycle():
    assert cocycle_residual(random_skew_adjoint(rng, 3), 2.0, 0.0) < 1e-12
    gens = QuatMatrix(np.stack([random_skew_adjoint(rng, 3).a
                                for _ in range(50)]))
    assert cocycle_residual(gens, 2.7, 1.3) < 1e-9
    assert cocycle_residual(gens, 1.7, 1.7) < 1e-12
    # the batch is as bad as its worst single
    assert cocycle_residual(gens, 2.7, 1.3) == max(
        cocycle_residual(QuatMatrix(g), 2.7, 1.3) for g in gens.a)


def test_time_reversal_identity():
    gens = QuatMatrix(np.stack([random_skew_adjoint(rng, 3).a
                                for _ in range(50)]))
    times = np.array([0.1, 1.0, 10.0])
    assert time_reversal_residual(QuatMatrix(gens.a[:, None]), times) < 1e-11
    with pytest.raises(NotSkewAdjoint):
        time_reversal_residual(random_quatmat(rng, 3, 3), 1.0)


def test_geodesic_block_values():
    u = random_unit_quaternion(rng).to_array()
    blk = geodesic_block(u, 1.0, 0.0)
    assert mat_close(blk.m, QuatMatrix.identity(2), 1e-14)
    # wt = pi/2, u = e
    blk = geodesic_block([1.0, 0.0, 0.0, 0.0], math.pi / 2, 1.0)
    assert abs(blk.m.a[0, 0, 0]) < 1e-12
    assert quat_close(Quaternion.from_array(blk.m.a[0, 1]), Quaternion(1.0))
    assert quat_close(Quaternion.from_array(blk.m.a[1, 0]), Quaternion(-1.0))


def test_geodesic_block_matches_exponential():
    u = unit_draws(100)
    omega = rng.uniform(0.1, 3.0, 100)
    t = rng.uniform(0.0, 5.0, 100)
    blk = geodesic_block(u, omega, t)
    ex = expm(geodesic_generator(u) * (omega * t))
    assert (blk.m - ex).max_abs() < 1e-10
    # the batch equals the singles
    for i in (0, 57, 99):
        one = geodesic_block(u[i], omega[i], t[i])
        assert np.array_equal(one.m.a, blk.m.a[i])


def test_geodesic_block_periodicity_and_membership():
    u = random_unit_quaternion(rng).to_array()
    omega = 1.7
    period = 2 * math.pi / omega
    b1 = geodesic_block(u, omega, 0.4)
    b2 = geodesic_block(u, omega, 0.4 + period)
    assert (b1.m - b2.m).max_abs() < 1e-10
    blk = geodesic_block(u, omega, np.linspace(0, 5, 20))
    assert blk.m.batch == (20,)
    GroupElement(blk.m)
    unitarity = blk.m.adjoint() @ blk.m - QuatMatrix.identity(2)
    assert unitarity.max_abs() <= 1e-12


def test_geodesic_block_unit_gate():
    with pytest.raises(NotUnitQuaternion):
        geodesic_block([2.0, 0.0, 0.0, 0.0], 1.0, 1.0)
    # one bad quaternion in a batch, and a NaN, fail the gate
    u = unit_draws(5)
    u[3] *= 1.001
    with pytest.raises(NotUnitQuaternion):
        geodesic_block(u, 1.0, 1.0)
    with pytest.raises(NotUnitQuaternion):
        geodesic_generator([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        geodesic_generator([1.0, 0.0, 0.0])


def test_transition_split_reconstruction():
    gen = QuatMatrix(np.stack([random_skew_adjoint(rng, 4).a
                               for _ in range(100)]))
    psi = StateVector(np.stack([random_state(rng, 4, 2).a
                                for _ in range(100)]), 2)
    split = transition_split(gen, psi)
    assert split.exchange_in.shape == (100, 2, 4)
    rec = split.reconstruction()
    direct = (gen @ column(psi)).a[..., 0, :]
    assert np.sqrt(sq_norms(rec - direct)).max() < 1e-12
    # the batch equals the singles
    one = transition_split(QuatMatrix(gen.a[7]), StateVector(psi.a[7], 2))
    assert np.array_equal(one.reconstruction(), rec[7])
    # an empty system or empty surroundings: no exchange, one rotation
    local = np.random.default_rng(1101)
    for k in (0, 4):
        gen = random_skew_adjoint(local, 4)
        psi = random_state(local, 4, k)
        split = transition_split(gen, psi)
        assert len(split.system_rotation) == len(split.exchange_in) == k
        assert len(split.surroundings_rotation) == len(split.exchange_out) == 4 - k
        assert not np.concatenate([split.exchange_in, split.exchange_out]).any()
        rec = split.reconstruction()
        direct = (gen @ column(psi)).a[..., 0, :]
        assert np.sqrt(sq_norms(rec - direct)).max() < 1e-12


def test_transition_split_block_diagonal():
    gen = block_diagonal_generator(4, 2)
    psi = random_state(rng, 4, 2)
    split = transition_split(gen, psi)
    assert np.abs(split.exchange_in).max() == 0.0
    assert np.abs(split.exchange_out).max() == 0.0


def test_transition_split_off_diagonal_only():
    gen = random_skew_adjoint(rng, 4)
    gen.a[:2, :2, :] = 0.0
    gen.a[2:, 2:, :] = 0.0
    psi = random_state(rng, 4, 2)
    split = transition_split(gen, psi)
    assert np.abs(split.system_rotation).max() == 0.0
    assert np.abs(split.surroundings_rotation).max() == 0.0
    assert np.abs(split.exchange_in).max() > 0.0
    assert np.abs(split.exchange_out).max() > 0.0


def test_transition_split_partition_gate():
    with pytest.raises(PartitionMismatch):
        transition_split(random_skew_adjoint(rng, 3), random_state(rng, 4, 2))
    with pytest.raises(PartitionMismatch):
        StateVector([[1.0, 0.0, 0.0, 0.0]], 2)
    with pytest.raises(PartitionMismatch):
        StateVector(np.zeros((5, 3, 4)), -1)
    with pytest.raises(DimensionMismatch):
        StateVector(np.zeros((3, 3)), 1)
