"""Order-2 binding/unbinding algebra: recovery round-trips, dual bases,
decomposition.  The decoder's order-3 tuple unbinding is tested through
``model.unbinding_module`` in ``test_model.py``."""

import numpy as np
import pytest

from tpn2f.tensor import ShapeError, Tensor
from tpn2f.tpr import ConsistencyError, TprSpace, bind2, decompose_residual, dual_basis, unbind2


def test_bind2_orthonormal_basis_gives_identity():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    out = bind2([e1, e2], [e1, e2])
    assert np.array_equal(out.data, np.eye(2))


def test_bind2_hand_value():
    out = bind2([[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(out.data, [[2.0, 0.0], [3.0, 3.0]])


def test_bind2_length_mismatch():
    with pytest.raises(ShapeError):
        bind2([[1.0, 0.0]], [])


def test_unbind2_orthonormal_recovery():
    t = bind2([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(unbind2(t, [1.0, 0.0]).data, [1.0, 0.0])


def test_unbind2_dual_recovery():
    t = Tensor([[2.0, 0.0], [3.0, 3.0]])
    # dual of r1=[1,0] under roles {[1,0],[1,1]} is [1,-1]
    assert np.array_equal(unbind2(t, [1.0, -1.0]).data, [2.0, 0.0])


def test_unbind2_zero_annihilates():
    t = Tensor([[2.0, 0.0], [3.0, 3.0]])
    assert np.array_equal(unbind2(t, [0.0, 0.0]).data, [0.0, 0.0])


def test_dual_basis_identity():
    assert np.allclose(dual_basis(np.eye(3)).data, np.eye(3), atol=1e-12)


def test_dual_basis_hand_inverse():
    u = dual_basis([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(u.data, [[1.0, -1.0], [0.0, 1.0]], atol=1e-10)


def test_dual_basis_overcomplete_matches_svd_pinv():
    # Three unit columns at 0, 120, 240 degrees in the plane.
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    r = np.stack([[np.cos(a), np.sin(a)] for a in angles], axis=1)
    u = dual_basis(r).data
    pinv = np.linalg.pinv(r)  # SVD-based oracle
    assert np.allclose(u, pinv, atol=1e-6)
    assert np.allclose(np.diag(u @ r), [2 / 3] * 3, atol=1e-6)
    # Frobenius-optimality: no better U' in a random neighbourhood.
    base = np.linalg.norm(u @ r - np.eye(3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        perturbed = u + 1e-3 * rng.standard_normal(u.shape)
        assert np.linalg.norm(perturbed @ r - np.eye(3)) >= base - 1e-12


def test_round_trip_full_rank_exact():
    rng = np.random.default_rng(7)
    space = TprSpace.random(rng, d_filler=30, n_fillers=150, d_role=40, n_roles=30)
    n_fillers, n_roles = space.fillers.shape[1], space.roles.shape[1]
    fillers = [space.fillers[:, rng.integers(n_fillers)] for _ in range(n_roles)]
    roles = [space.roles[:, j] for j in range(n_roles)]
    bound = bind2(fillers, roles)
    for j in range(n_roles):
        rec = unbind2(bound, space.unbinding_vector(j)).data
        assert np.abs(rec - fillers[j]).max() < 1e-9


def test_approximate_recovery_beats_random_baseline():
    """Overcomplete roles (50 in 20-D): pseudo-inverse unbinding is still far
    more aligned with the true fillers than chance."""
    rng = np.random.default_rng(3)
    d_f, d_r, n = 30, 20, 50
    fillers = rng.standard_normal((d_f, n))
    roles = rng.standard_normal((d_r, n))
    roles /= np.linalg.norm(roles, axis=0)
    duals = dual_basis(roles).data
    bound = fillers @ roles.T

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    recovered = [cosine(bound @ duals[j], fillers[:, j]) for j in range(n)]
    random_pairs = [cosine(rng.standard_normal(d_f), fillers[:, j]) for j in range(n)]
    mean_rec, mean_rand = np.mean(recovered), np.mean(random_pairs)
    print(f"approximate recovery: mean cos {mean_rec:.3f} vs random {mean_rand:.3f}")
    assert mean_rec > mean_rand + 0.3


# ---------------------------------------------------------------------------
# decomposition of an approximate binding


def _random_conditions(rng, d_f=6, d_r=8, k=3):
    roles = rng.standard_normal((d_r, k))
    duals = dual_basis(roles).data
    fillers = [rng.standard_normal(d_f) for _ in range(k)]
    bound = bind2(fillers, [roles[:, i] for i in range(k)]).data
    return bound, [duals[i] for i in range(k)], fillers


def test_decompose_pure_binding_has_zero_residual():
    rng = np.random.default_rng(1)
    bound, unbinds, fillers = _random_conditions(rng)
    h_tpr, z = decompose_residual(bound, unbinds, fillers)
    assert np.abs(z.data).max() < 1e-9
    assert np.allclose(h_tpr.data, bound, atol=1e-9)


def test_decompose_recovers_planted_residual():
    rng = np.random.default_rng(2)
    bound, unbinds, fillers = _random_conditions(rng)
    u_stack = np.stack(unbinds, axis=1)
    q, _ = np.linalg.qr(u_stack)
    w = rng.standard_normal(u_stack.shape[0])
    w -= q @ (q.T @ w)  # orthogonal to every unbinding vector
    v = rng.standard_normal(bound.shape[0])
    noisy = bound + np.outer(v, w)
    h_tpr, z = decompose_residual(noisy, unbinds, fillers)
    assert np.abs(z.data - np.outer(v, w)).max() < 1e-9
    for u in unbinds:
        assert np.abs(z.data @ u).max() <= 1e-8


def test_decompose_rejects_violated_conditions():
    rng = np.random.default_rng(3)
    bound, unbinds, fillers = _random_conditions(rng)
    fillers[0] = fillers[0] + 1.0  # violates H @ u_0 = f_0 by 1.0
    with pytest.raises(ConsistencyError):
        decompose_residual(bound, unbinds, fillers)


def test_decompose_unbinding_equivalence_same_code_path():
    """Unbinding the decomposed pure part equals unbinding the original,
    through the identical unbind2 routine."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        bound, unbinds, fillers = _random_conditions(rng)
        w = rng.standard_normal(bound.shape[1])
        q, _ = np.linalg.qr(np.stack(unbinds, axis=1))
        w -= q @ (q.T @ w)
        noisy = bound + np.outer(rng.standard_normal(bound.shape[0]), w)
        h_tpr, _ = decompose_residual(noisy, unbinds, fillers)
        for u in unbinds:
            a = unbind2(noisy, u).data
            b = unbind2(h_tpr.data, u).data
            assert np.abs(a - b).max() <= 1e-8


def test_decompose_bitwise_on_coordinate_unbinding_vectors():
    """With standard-basis unbinding vectors the decomposition is exact in
    float arithmetic, so both unbinding paths agree bit for bit."""
    rng = np.random.default_rng(5)
    h = rng.standard_normal((5, 7))
    picks = [1, 3, 6]
    unbinds = [np.eye(7)[j] for j in picks]
    fillers = [h @ u for u in unbinds]
    h_tpr, z = decompose_residual(h, unbinds, fillers)
    for u in unbinds:
        assert np.array_equal(unbind2(h, u).data, unbind2(h_tpr.data, u).data)
        assert np.array_equal(z.data @ u, np.zeros(5))
