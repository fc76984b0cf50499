"""Entangling power of two-qubit operators over product states.

The entanglement measure for a state with amplitude matrix t is |det t|^2
(2 det t is the only independent local invariant of a two-qubit state under
unit-determinant local actions).  The entangling power of an operator is the
average of that measure when the operator acts on product states drawn
uniformly from the two Bloch spheres:

    a1 = e^(i phi1) cos(theta1),  b1 = e^(-i phi1) sin(theta1)   (qubit 1)
    a2 = e^(i phi2) cos(theta2),  b2 = e^(-i phi2) sin(theta2)   (qubit 2)
    average = (4/pi^2) Int dphi1 dphi2 dtheta1 dtheta2
                      sin(theta1)cos(theta1) sin(theta2)cos(theta2) ...

For X-patterned operators the average has the closed form

    e_P = (1/9) [|h1 h7|^2 + |h2 h8|^2 + |h3 h5|^2 + |h4 h6|^2]
        + (1/36) |h1 h8 + h2 h7 - h3 h6 - h4 h5|^2,

where 1/9 = <cos^4>^2 and 1/36 = <cos^2 sin^2>^2 are squares of per-qubit
moments (the cross term couples both qubits, so its moment enters squared;
exact quadrature, Monte Carlo, and symbolic integration all agree).  For a
normalized output state |det t|^2 <= 1/4 pointwise, which bounds e_P of any
unitary by 1/4; the Bell matrix attains the unitary X-type maximum 1/9.

For any 4x4 operator the average is a Haar fourth moment with an exact
operator form, :func:`entangling_power`, the production route.
:func:`entangling_power_quadrature` evaluates the average itself on a fixed
grid that is exact because the integrand is a trigonometric polynomial of low
degree per angle (a uniform grid in the phases, Gauss-Legendre in
u = cos(2 theta)); the tests also keep a Monte Carlo oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import (DEFAULT_TOL, LOCAL_PAULIS, XTYPE_SUPPORT, _EPS, _as_two_qubit,
                          is_xtype, max_norm, numerical_rank, partial_transpose)
from .yang_baxter import CatalogEntry, XTypeParams, assemble, bind, evaluate_expr

__all__ = [
    "ProductState",
    "apply_to_product",
    "j2_invariant",
    "epsilon_reduction_check",
    "linear_entropy",
    "entangling_power",
    "entangling_power_closed",
    "entangling_power_quadrature",
    "unitary_xtype",
    "class_epower",
    "epower_scale",
    "state_action_rank",
    "EIGEN_EXPRESSIBLE_CLASSES",
]

_EPS_EPS = np.kron(_EPS, _EPS)


@dataclass(frozen=True)
class ProductState:
    """Normalized product state (a1|0> + b1|1>) x (a2|0> + b2|1>)."""

    a1: complex
    b1: complex
    a2: complex
    b2: complex

    def __post_init__(self):
        for (a, b), tag in (((self.a1, self.b1), "1"), ((self.a2, self.b2), "2")):
            norm = abs(a) ** 2 + abs(b) ** 2
            if abs(norm - 1.0) > DEFAULT_TOL:
                raise ValueError(f"qubit {tag} factor is not normalized (|.|^2 = {norm})")

    @classmethod
    def from_angles(cls, theta1: float, phi1: float, theta2: float, phi2: float):
        (a1, b1), (a2, b2) = _qubit_states([phi1, phi2], [theta1, theta2])
        return cls(a1=a1, b1=b1, a2=a2, b2=b2)

    def vector(self) -> np.ndarray:
        return np.array(
            [self.a1 * self.a2, self.a1 * self.b2, self.b1 * self.a2, self.b1 * self.b2],
            dtype=complex,
        )


def apply_to_product(r, p: ProductState) -> np.ndarray:
    """Amplitude matrix t[i1, i2] of R acting on a product state."""
    return (_as_two_qubit(r) @ p.vector()).reshape(2, 2)


def j2_invariant(t) -> complex:
    """The quadratic state invariant 2 det t of a 2x2 amplitude matrix; zero
    exactly on product states."""
    return 2 * complex(np.linalg.det(np.asarray(t, dtype=complex)))


def epsilon_reduction_check(t) -> float:
    """Residual of t_{i1 i2} t_{j1 j2} eps_{i1 j1} = (det t) eps_{i2 j2}.

    This identity is what collapses every higher-order state invariant to a
    power of det t.
    """
    m = np.asarray(t, dtype=complex)
    lhs = np.einsum("ia,jb,ij->ab", m, m, _EPS)
    return max_norm(lhs - np.linalg.det(m) * _EPS)


def linear_entropy(t) -> float:
    """Linear entropy 2 |det t|^2 / Tr(t t+)^2 of the (unnormalized) state."""
    m = np.asarray(t, dtype=complex)
    det = np.linalg.det(m)
    norm2 = np.trace(m @ m.conj().T).real
    return float(2 * abs(det) ** 2 / norm2**2)


def entangling_power_closed(r, tol: float = DEFAULT_TOL) -> float:
    """Closed-form entangling power of a 4x4 operator that is X-patterned
    within ``tol`` (see :func:`~braidgate.matrix_core.is_xtype`); it reads
    the eight X slots only."""
    r = _as_two_qubit(r)
    if not is_xtype(r, tol):
        raise ValueError("closed form applies to X-patterned operators only")
    h1, h2, h3, h4, h5, h6, h7, h8 = r[XTYPE_SUPPORT]
    first = (
        abs(h1 * h7) ** 2 + abs(h2 * h8) ** 2 + abs(h3 * h5) ** 2 + abs(h4 * h6) ** 2
    )
    second = abs(h1 * h8 + h2 * h7 - h3 * h6 - h4 * h5) ** 2
    return float(first / 9 + second / 36)


def epower_scale(r) -> float:
    """||R||_F^4 / 36, an entangling power's scale: both grow as R^4."""
    return float(np.linalg.norm(_as_two_qubit(r)) ** 4 / 36)


def _qubit_states(phi, theta) -> np.ndarray:
    """One-qubit states [e^(i phi) cos(theta), e^(-i phi) sin(theta)] on a last axis."""
    phase = np.exp(1j * np.asarray(phi))
    return np.stack([phase * np.cos(theta), phase.conj() * np.sin(theta)], axis=-1)


def _det_sq(amps) -> np.ndarray:
    """|det t|^2 from amplitudes (t00, t01, t10, t11) stacked on the first axis."""
    return np.abs(amps[0] * amps[3] - amps[1] * amps[2]) ** 2


def _qubit_grid():
    """One-qubit quadrature grid, exact for the average: states (16^2, 2), weights.

    The phi dependence enters only through e^(+-2 i k phi) with k <= 2, for
    which a uniform grid over one period [-pi, 0) is exact; the theta part is
    polynomial of degree <= 2 in u = cos(2 theta), where Gauss-Legendre is
    exact.  The measure splits as d(phi)/pi x du/2 per qubit, so the
    two-qubit grid is the product of two copies of this one.  The
    Gauss-Legendre nodes and weights come from the eigenvectors of the
    Jacobi matrix (Golub-Welsch), which keeps ``numpy.polynomial`` out of
    the import.
    """
    nodes = 16
    phis = -np.pi + np.pi * np.arange(nodes) / nodes
    k = np.arange(1, nodes)
    off = k / np.sqrt(4 * k**2 - 1)
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2 * vecs[0] ** 2
    phi, theta = np.meshgrid(phis, np.arccos(u) / 2, indexing="ij")
    return _qubit_states(phi, theta).reshape(-1, 2), np.tile(w / (2 * nodes), nodes)


_GRID_STATES, _GRID_WEIGHTS = _qubit_grid()


def entangling_power(r) -> float:
    """Exact entangling power of any 4x4 operator (the production route).

    The product-state average of |det t|^2 is a Haar fourth moment with the
    closed operator form (Zanardi, Zalka & Faoro, PRA 62, 030301 (2000))

        M = R^T (eps x eps) R,   e_P = (2 |M|_F^2 + 2 Re <M, M^G>) / 144,

    where G swaps the second qubit's row and column indices.
    """
    r = _as_two_qubit(r)
    m = r.T @ _EPS_EPS @ r
    m_g = partial_transpose(m, 2)
    return float((2 * np.vdot(m, m).real + 2 * np.vdot(m, m_g).real) / 144)


def entangling_power_quadrature(r) -> float:
    """Average |det t|^2 over a product grid of states.

    Works for any 4x4 operator and is exact for the integrand's trigonometric
    degree, so it agrees with :func:`entangling_power` to rounding.  The
    amplitudes on the grid are a separable contraction of R with the
    one-qubit states; the grid is built once, at import.
    """
    r = _as_two_qubit(r)
    states = _GRID_STATES
    amps = np.einsum("kij,ai->kaj", r.reshape(4, 2, 2), states) @ states.T
    return float(_GRID_WEIGHTS @ _det_sq(amps) @ _GRID_WEIGHTS)


def unitary_xtype(
    r1: float,
    r3: float,
    phi1: float = 0.0,
    phi2: float = 0.0,
    phi3: float = 0.0,
    phi4: float = 0.0,
    phi6: float = 0.0,
    phi8: float = 0.0,
) -> XTypeParams:
    """Unitary X-type parametrization by two radii and six phases.

    (r1, r3, phi1, phi3, phi6, phi8) are invariant under unit-determinant
    local actions; phi2 and phi4 are pure gauge for the entangling power.
    """
    if not (0 <= r1 <= 1 and 0 <= r3 <= 1):
        raise ValueError("radii must lie in [0, 1]")
    s1 = np.sqrt(1 - r1**2)
    s3 = np.sqrt(1 - r3**2)
    return XTypeParams(
        h1=r1 * np.exp(1j * phi1),
        h2=s1 * np.exp(1j * phi2),
        h3=r3 * np.exp(1j * phi3),
        h4=s3 * np.exp(1j * phi4),
        h5=-s3 * np.exp(1j * (phi3 + phi6 - phi4)),
        h6=r3 * np.exp(1j * phi6),
        h7=-s1 * np.exp(1j * (phi1 + phi8 - phi2)),
        h8=r1 * np.exp(1j * phi8),
    )


# classes whose entangling power is a function of the eigenvalues alone
EIGEN_EXPRESSIBLE_CLASSES = frozenset({1, 2})


# Per-class specializations of the closed form, over the free parameters of
# the class representative.  The invariant cross term carries the coefficient
# 1/36 (its per-qubit moment squared); class constraints often simplify it to
# 1/9 of a squared modulus because the invariant combination there is twice a
# product.
_CLASS_EPOWER: dict[int, str] = {
    1: "abs(h1*h8-h4*h5)**2/36",
    2: "abs(h2*h7-h3**2)**2/36",
    3: "(abs(h1*h7)**2+abs(h1*(h1+h8))**2)/9+abs(h1*h8)**2/9",
    4: "abs(h4*h6)**2/9+abs(h1*h6)**2/36",
    5: "abs(h4*h6)**2/9+abs(h1*(h1-h6))**2/9",
    6: "(abs(h2*h8)**2+abs(h1*(h1+h8)**2/h2)**2/16+abs((h1+h8)*sqrt(h1**2+h8**2))**2/4)/9"
       "+abs(h1-h8)**4/144",
    7: "(abs(h1*h2)**2+abs(h1*h3**2)**2/abs(h2)**2+2*abs(h1*h3)**2)/9",
    8: "(abs(h1*h2)**2+abs(h1**3)**2/abs(h2)**2+2*abs(h1**2)**2)/9",
    9: "abs(h1*h7)**2/9",
    10: "abs(h1*h7)**2/9+abs(h1)**4/9",
    11: "abs(h7*h8)**2/9+5*abs(h8)**4/9",
    12: "(abs(h1*h2)**2+abs(h1)**6/(4*abs(h2)**2))/9+abs(h1)**4/36",
}


def class_epower(entry: CatalogEntry, params: dict, tol: float = DEFAULT_TOL) -> dict:
    """Per-class closed form for the entangling power, cross-checked.

    Returns the formula value, the general X-type closed form, their
    difference, which passes at most ``tol`` times :func:`epower_scale`, and
    whether this class's value is expressible through the operator's
    eigenvalues alone (only classes 1 and 2 are).
    """
    if entry.variant_id != 0:
        raise ValueError("per-class entangling power formulas address representatives (.0)")
    p = bind(entry.entry_id, entry.free_params, params)
    formula = evaluate_expr(_CLASS_EPOWER[entry.class_id], p).real
    r = assemble(entry.fill(p))
    general = entangling_power_closed(r)
    return {
        "entry": entry.entry_id,
        "formula": formula,
        "closed": general,
        "difference": abs(formula - general),
        "eigen_expressible": entry.class_id in EIGEN_EXPRESSIBLE_CLASSES,
        "passed": abs(formula - general) <= tol * epower_scale(r),
    }


def state_action_rank(psi) -> int:
    """Rank of the six one-qubit Pauli actions on a two-qubit state.

    Applying X, Y, Z on either qubit to a generic state yields six vectors of
    which only three are linearly independent; the single normal direction is
    the state invariant.  The rank is :func:`~braidgate.matrix_core.numerical_rank`.
    """
    return numerical_rank(LOCAL_PAULIS @ np.asarray(psi, dtype=complex).reshape(4))
