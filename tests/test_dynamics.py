import math

import numpy as np
import pytest

from qflag.dynamics import (StateVector, cocycle_residual, evolve,
                            geodesic_block, geodesic_generator, random_state,
                            time_reversal_residual, transition_split)
from qflag.errors import (NotSkewAdjoint, NotUnitQuaternion, PartitionMismatch)
from qflag.quaternion import Quaternion, random_unit_quaternion
from qflag.quatmat import QuatMatrix, expm, random_quatmat, random_skew_adjoint

rng = np.random.default_rng(707)


def block_diagonal_generator(n, k):
    gen = random_skew_adjoint(rng, n)
    gen.a[:k, k:, :] = 0.0
    gen.a[k:, :k, :] = 0.0
    return gen


def test_evolve_at_zero_time():
    gen = random_skew_adjoint(rng, 3)
    psi = random_state(rng, 3, 1)
    out = evolve(gen, psi, 0.0)
    assert max((a - b).norm() for a, b in
               zip(out.components, psi.components)) < 1e-14


def test_norm_conservation():
    gen = random_skew_adjoint(rng, 3)
    psi = random_state(rng, 3, 1)
    for t in np.linspace(0.0, 10.0, 100):
        assert abs(evolve(gen, psi, t).norm_sq() - psi.norm_sq()) < 1e-9


def test_block_diagonal_generator_conserves_parts():
    gen = block_diagonal_generator(3, 1)
    psi = random_state(rng, 3, 1)
    for t in np.linspace(0.0, 10.0, 50):
        moved = evolve(gen, psi, t)
        assert abs(moved.system_norm_sq() - psi.system_norm_sq()) < 1e-9
        assert abs(moved.surroundings_norm_sq()
                   - psi.surroundings_norm_sq()) < 1e-9


def test_evolve_gates():
    psi = random_state(rng, 3, 1)
    with pytest.raises(NotSkewAdjoint):
        evolve(random_quatmat(rng, 3, 3), psi, 1.0)
    with pytest.raises(PartitionMismatch):
        evolve(random_skew_adjoint(rng, 4), psi, 1.0)


def test_cocycle():
    assert cocycle_residual(random_skew_adjoint(rng, 3), 2.0, 0.0) < 1e-12
    for _ in range(50):
        gen = random_skew_adjoint(rng, 3)
        assert cocycle_residual(gen, 2.7, 1.3) < 1e-9
        assert cocycle_residual(gen, 1.7, 1.7) < 1e-12


def test_time_reversal_identity():
    for _ in range(50):
        gen = random_skew_adjoint(rng, 3)
        for t in (0.1, 1.0, 10.0):
            assert time_reversal_residual(gen, t) < 1e-11
    with pytest.raises(NotSkewAdjoint):
        time_reversal_residual(random_quatmat(rng, 3, 3), 1.0)


def test_geodesic_block_values():
    u = random_unit_quaternion(rng)
    blk = geodesic_block(u, 1.0, 0.0)
    assert blk.m.allclose(QuatMatrix.identity(2), tol=1e-14)
    # wt = pi/2, u = e
    blk = geodesic_block(Quaternion(1.0), math.pi / 2, 1.0)
    assert abs(blk.m.entry(0, 0).w) < 1e-12
    assert blk.m.entry(0, 1).is_close(Quaternion(1.0), tol=1e-12)
    assert blk.m.entry(1, 0).is_close(Quaternion(-1.0), tol=1e-12)


def test_geodesic_block_matches_exponential():
    for _ in range(100):
        u = random_unit_quaternion(rng)
        omega = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.0, 5.0)
        blk = geodesic_block(u, omega, t)
        ex = expm(geodesic_generator(u) * (omega * t))
        assert (blk.m - ex).max_abs() < 1e-10


def test_geodesic_block_periodicity_and_membership():
    u = random_unit_quaternion(rng)
    omega = 1.7
    period = 2 * math.pi / omega
    b1 = geodesic_block(u, omega, 0.4)
    b2 = geodesic_block(u, omega, 0.4 + period)
    assert (b1.m - b2.m).max_abs() < 1e-10
    for t in np.linspace(0, 5, 20):
        assert geodesic_block(u, omega, t).m.is_unitary(1e-12)


def test_geodesic_block_unit_gate():
    with pytest.raises(NotUnitQuaternion):
        geodesic_block(Quaternion(2.0), 1.0, 1.0)


def test_transition_split_reconstruction():
    for _ in range(100):
        gen = random_skew_adjoint(rng, 4)
        psi = random_state(rng, 4, 2)
        split = transition_split(gen, psi)
        rec = split.reconstruction()
        direct = gen @ psi.as_column()
        assert max((rec[i] - direct.entry(i, 0)).norm()
                   for i in range(4)) < 1e-12
    # an empty system or empty surroundings: no exchange, one rotation
    local = np.random.default_rng(1101)
    for k in (0, 4):
        gen = random_skew_adjoint(local, 4)
        psi = random_state(local, 4, k)
        split = transition_split(gen, psi)
        assert len(split.system_rotation) == len(split.exchange_in) == k
        assert len(split.surroundings_rotation) == len(split.exchange_out) == 4 - k
        assert all(q.norm() == 0.0 for q in split.exchange_in + split.exchange_out)
        rec = split.reconstruction()
        direct = gen @ psi.as_column()
        assert max((rec[i] - direct.entry(i, 0)).norm()
                   for i in range(4)) < 1e-12


def test_transition_split_block_diagonal():
    gen = block_diagonal_generator(4, 2)
    psi = random_state(rng, 4, 2)
    split = transition_split(gen, psi)
    assert max(q.norm() for q in split.exchange_in) == 0.0
    assert max(q.norm() for q in split.exchange_out) == 0.0


def test_transition_split_off_diagonal_only():
    gen = random_skew_adjoint(rng, 4)
    gen.a[:2, :2, :] = 0.0
    gen.a[2:, 2:, :] = 0.0
    psi = random_state(rng, 4, 2)
    split = transition_split(gen, psi)
    assert max(q.norm() for q in split.system_rotation) == 0.0
    assert max(q.norm() for q in split.surroundings_rotation) == 0.0
    assert max(q.norm() for q in
               split.exchange_in + split.exchange_out) > 0.0


def test_transition_split_partition_gate():
    with pytest.raises(PartitionMismatch):
        transition_split(random_skew_adjoint(rng, 3), random_state(rng, 4, 2))
    with pytest.raises(PartitionMismatch):
        StateVector((Quaternion(1.0),), 2)
