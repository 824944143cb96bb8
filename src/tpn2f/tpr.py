"""Order-2 role/filler binding theory the model is checked against.

A symbol structure is embedded as a sum of filler (x) role outer products;
a constituent is recovered by contracting with the role's dual (unbinding)
vector (Smolensky 1990).  ``decompose_residual`` splits a tensor that meets
the unbinding conditions into a pure binding plus a part no unbinding vector
sees.  The decoder's order-3 tuple binding is defined once, by
``model.unbinding_module``.

All functions accept ``Tensor`` or plain array-likes and return ``Tensor``;
``bind2`` and ``unbind2`` compose the taped ops, so they are differentiable
when fed taped inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import RankError, ShapeError, Tensor, add, contract_last, outer_product


class ConsistencyError(ValueError):
    """Inputs violate the unbinding conditions beyond tolerance."""


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def dual_basis(role_matrix) -> Tensor:
    """Left inverse of a role matrix (columns = role vectors).

    Full-column-rank input gives the exact left inverse via the normal
    equations; otherwise a ridge (1e-10) pseudo-inverse that minimizes
    the Frobenius error of U @ R - I.  Row j of the result is the
    unbinding vector dual to role j.
    """
    r = _as_tensor(role_matrix).data
    if r.ndim != 2 or r.size == 0:
        raise RankError(f"dual_basis expects a non-empty matrix, got shape {r.shape}")
    d, n = r.shape
    gram = r.T @ r
    if n <= d:
        try:
            return Tensor(np.linalg.solve(gram, r.T))
        except np.linalg.LinAlgError:
            pass
    ridge = gram + 1e-10 * np.eye(n)
    return Tensor(np.linalg.solve(ridge, r.T))


def bind2(fillers, roles) -> Tensor:
    """Sum of filler (x) role outer products: T = sum_i f_i r_i^T."""
    fillers = [_as_tensor(f) for f in fillers]
    roles = [_as_tensor(r) for r in roles]
    if len(fillers) != len(roles):
        raise ShapeError(f"{len(fillers)} fillers vs {len(roles)} roles")
    if not fillers:
        raise ShapeError("bind2 needs at least one filler/role pair")
    out = outer_product(fillers[0], roles[0])
    for f, r in zip(fillers[1:], roles[1:]):
        out = add(out, outer_product(f, r))
    return out


def unbind2(bound, unbind_vector) -> Tensor:
    """Recover a filler: T @ u.  Exact when u is dual to the bound role."""
    return contract_last(_as_tensor(bound), _as_tensor(unbind_vector))


def decompose_residual(bound, unbind_vectors, fillers, tolerance: float = 1e-8):
    """Split H into a pure binding part plus a residual invisible to unbinding.

    Requires H @ u_i ~= f_i for every supplied pair; the returned pair
    (H_tpr, Z) satisfies H = H_tpr + Z with Z @ u_i vanishing (<= 1e-8),
    i.e. every unbinding result is carried entirely by H_tpr.
    """
    h = _as_tensor(bound).data
    us = [np.asarray(u, dtype=np.float64) for u in unbind_vectors]
    fs = [np.asarray(f, dtype=np.float64) for f in fillers]
    if len(us) != len(fs) or not us:
        raise ShapeError(f"{len(us)} unbinding vectors vs {len(fs)} fillers")
    for i, (u, f) in enumerate(zip(us, fs)):
        err = np.abs(h @ u - f).max()
        if err > tolerance:
            raise ConsistencyError(
                f"unbinding condition {i} violated by {err:.3e} (tolerance {tolerance:.0e})")
    u_mat = np.stack(us, axis=1)               # (d_role, k)
    duals = dual_basis(u_mat).data             # (k, d_role); rows are roles dual to the u_i
    f_mat = np.stack(fs, axis=1)               # (d_filler, k)
    h_tpr = f_mat @ duals
    z = h - h_tpr
    worst = max(np.abs(z @ u).max() for u in us)
    if worst > 1e-8:
        raise ConsistencyError(
            f"residual fails to annihilate the unbinding vectors (max {worst:.3e}); "
            "unbinding vectors are too ill-conditioned")
    return Tensor(h_tpr), Tensor(z)


@dataclass
class TprSpace:
    """Filler/role dictionaries plus the role matrix's dual (unbinding) basis."""

    fillers: np.ndarray      # (d_filler, n_fillers), column i embeds filler i
    roles: np.ndarray        # (d_role, n_roles)
    unbinding: np.ndarray    # (n_roles, d_role) = dual_basis(roles); row j unbinds role j

    @classmethod
    def random(cls, rng: np.random.Generator, d_filler: int, n_fillers: int,
               d_role: int, n_roles: int) -> "TprSpace":
        fillers = rng.standard_normal((d_filler, n_fillers))
        roles = rng.standard_normal((d_role, n_roles))
        return cls(fillers, roles, dual_basis(roles).data)

    def unbinding_vector(self, j: int) -> np.ndarray:
        return self.unbinding[j]
