"""Five preconditioner families learned on matrix Lie groups, plus direct sums.

Every preconditioner keeps a factored state Q with P = Q^T Q and learns from
tangent pairs (dt, dg) by one relative-gradient step per pair, minimizing

    c(P) = E[ dg^T P dg + dt^T P^{-1} dt ]

whose minimizer whitens the gradient perturbations: P E[dg dg^T] P = E[dt dt^T].
Updates are multiplicative with a step size normalized by the max norm of the
gradient, so triangular factors keep strictly positive diagonals and the state
never leaves its group. Single-sample gradient estimates are used (one pair
per update); the constant factor two of the exact expressions is absorbed by
the normalization.

Conventions: flat slices are matricized column-major, so a Kronecker factor
pair (Q1, Q2) for an (M, N) block acts on vec(G) as vec(Q1 G Q2^T).
"""

import math
from typing import NamedTuple

import numpy as np

from .curvature import TangentPair
from .errors import (
    ContractViolationError,
    DegenerateCurvatureError,
    DegenerateStateError,
    NumericInputError,
)
from .linalg import (
    _all_finite,
    _strict_lower_mask,
    _tri_solve_unchecked,
    _zero_strict_lower,
    max_norm,
    tri_solve,
)

__all__ = [
    "DensePrecond",
    "DiagPrecond",
    "DirectSumPrecond",
    "FAMILIES",
    "KronPrecond",
    "Preconditioner",
    "ScanPrecond",
    "SpluPrecond",
    "closed_form_diagonal",
    "estimation_criterion",
    "make_preconditioner",
]

# The one floor of every factor diagonal: set_factors refuses a state below it
# and the kernels a candidate, so no path reaches a state the kernels could not.
_REJECT_FLOOR = 1e-150
# Error state of the gradients that fold the factor checks (see Preconditioner).
_quiet = np.errstate(all="ignore")
# The identity state of a factor of each structure, given its shape.
_IDENTITY = {"upper": lambda s: np.eye(s[0]), "lower": lambda s: np.eye(s[0]),
             "positive": np.ones, "free": np.zeros}

# The kernels call ndarray.dot rather than @, ufunc reductions rather than
# ndarray.sum, and take a vector's minimum as v[v.argmin()] (nan when an entry
# is nan): on their tiny arrays each skips a layer that costs about as much as
# the arithmetic, and the bits are the same.


def _admissible(*diagonals: np.ndarray) -> bool:
    """True when every candidate diagonal entry is at least _REJECT_FLOOR (so not nan)."""
    for d in diagonals:
        if d.size and not d[d.argmin()] >= _REJECT_FLOOR:
            return False
    return True


def _triangular_step(q: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """The candidate q - mu g q for a triangular factor q if it is admissible, else q.
    A 1x1 q takes the same steps on scalars (numpy dots two 1x1 arrays as one product)."""
    if q.shape[0] == 1:
        c = q[0, 0] - mu * (g[0, 0] * q[0, 0])
        return np.array([[c]]) if c >= _REJECT_FLOOR else q
    cand = q - mu * g.dot(q)
    return cand if _admissible(cand.diagonal()) else q


def _scan_factors(p: "Preconditioner") -> None:
    """Raise NumericInputError unless every declared factor of p is finite."""
    for name, _ in p.factors:
        if not _all_finite(getattr(p, name)):
            raise NumericInputError(f"non-finite entries in factor {name}")


def _finite_max_norms(*parts) -> list:
    """Max-norm of each part of a gradient; NumericInputError if one is not finite."""
    norms = [max_norm(part) for part in parts]
    if not all(map(math.isfinite, norms)):
        raise NumericInputError("non-finite preconditioner gradient")
    return norms


def _wrong_length(dim: int, v: np.ndarray) -> ContractViolationError:
    return ContractViolationError(f"vector of length {dim} expected, got shape {v.shape}")


class _BlockPair(NamedTuple):
    """Views of one direct-sum block's slice of a TangentPair."""

    delta_theta: np.ndarray
    delta_g: np.ndarray


class Preconditioner:
    """Common surface of all variants: apply P, apply P^{-1}, learn from pairs.

    Each family declares its state once, as class data:

    - ``tag``: its checkpoint record tag;
    - ``shape_fields``: the attributes that hold its constructor arguments,
      in constructor order;
    - ``factors``: its factor attributes in checkpoint payload order, each
      with its structure: ``"upper"`` or ``"lower"`` (a square triangular
      factor with a positive diagonal), ``"positive"`` (a vector of positive
      diagonal entries) or ``"free"``;
    - ``_factor_shapes(*shape_fields)``: the factors' shapes.

    Its kernels are ``_apply`` and ``_apply_inv``, on a float vector of its
    dim, and ``_update``; ``FAMILIES`` lists the families by variant name.
    The constructor (the identity state), ``factor_shapes`` (each shape field
    checked to be at least 1, nothing allocated), ``set_factors``,
    ``min_diag``, ``param_count`` and the checkpoint record derive from this
    declaration. ``set_factors`` is the one checked way to set factors: the
    constructor and it establish the group invariant, and the kernels keep it
    (``_admissible``). Writing into a factor array in place bypasses it; tests
    use that to corrupt a state on purpose. A family without a ``dim`` field
    is an (m, n) matrix block with ``dim = m * n``. ``apply`` and
    ``apply_inv`` check the vector once and run the kernel (a direct sum's
    kernel runs each block's kernel on its slice). ``update`` takes a
    TangentPair, which has proved its two vectors finite, 1-D, float and of
    equal length. It checks the step and the pair's length, then runs the
    family's ``_update`` kernel on the raw arrays. Before it assigns anything
    a kernel shows its factors finite, by ``_scan_factors`` or by the norm
    test on a gradient every factor entry reaches, even times a zero (inf * 0
    is nan on a BLAS that skips no zero operand). That gradient is computed
    under ``_quiet``, so numpy's error state adds no warning or
    FloatingPointError to the NumericInputError the norm test raises.
    """

    dim: int
    tag: int
    shape_fields = ()
    factors = ()

    def __init__(self, *shape):
        shapes = self.factor_shapes(*shape)
        vars(self).update(zip(self.shape_fields, shape))
        if "dim" not in self.shape_fields:
            self.dim = self.m * self.n
        for (name, structure), s in zip(self.factors, shapes):
            setattr(self, name, _IDENTITY[structure](s))

    def apply(self, g: np.ndarray) -> np.ndarray:
        """P g; ContractViolationError unless g is a vector of this dim."""
        return self._apply(self._check_dim(g))

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v; ContractViolationError unless v is a vector of this dim."""
        return self._apply_inv(self._check_dim(v))

    @classmethod
    def factor_shapes(cls, *shape) -> list:
        """The factors' shapes; ContractViolationError for rejected shape fields."""
        for field, value in zip(cls.shape_fields, shape):
            if value < 1:
                raise ContractViolationError(
                    f"{cls.__name__} dimension {field} must be at least 1, got {value}")
        return cls._factor_shapes(*shape)

    def update(self, pair: TangentPair, step: float) -> None:
        """One normalized relative-gradient step on the pair (dt, dg)."""
        if not 0.0 < step < 1.0:
            raise ContractViolationError("normalized step size must lie in (0, 1)")
        dt = pair.delta_theta
        if len(dt) != self.dim:  # the pair's two vectors have one length
            raise _wrong_length(self.dim, dt)
        self._update(dt, pair.delta_g, step)

    def set_factors(self, **arrays) -> "Preconditioner":
        """Set the named factors to float copies of the arrays; returns self.

        Nothing is assigned unless every array passes, in this order:
        ContractViolationError for an unknown name or a wrong shape,
        NumericInputError for a non-finite entry, DegenerateStateError for a
        diagonal entry below the floor (so for a zero or negative one) and
        ContractViolationError for an entry outside a triangle.
        """
        structures = dict(self.factors)
        family = type(self).__name__
        checked = {}
        for name, a in arrays.items():
            if name not in structures:
                raise ContractViolationError(f"{family} has no factor {name!r}")
            structure, shape = structures[name], getattr(self, name).shape
            a = np.array(a, dtype=float)
            if a.shape != shape:
                raise ContractViolationError(
                    f"factor {name} of shape {shape} expected, got shape {a.shape}")
            if not _all_finite(a):
                raise NumericInputError(f"non-finite entries in factor {name}")
            if structure != "free":
                diagonal = a if structure == "positive" else a.diagonal()
                if not (diagonal >= _REJECT_FLOOR).all():
                    raise DegenerateStateError(f"{family} factor diagonal collapsed: "
                                               f"entry below {_REJECT_FLOOR:g} in factor {name}")
            if structure == "upper" and np.tril(a, -1).any():
                raise ContractViolationError(f"entries below the upper triangle of factor {name}")
            if structure == "lower" and np.triu(a, 1).any():
                raise ContractViolationError(f"entries above the lower triangle of factor {name}")
            checked[name] = a
        vars(self).update(checked)
        return self

    def min_diag(self) -> float:
        """Smallest diagonal entry over the factors; the group needs it positive.

        It is nan when a diagonal entry is nan.
        """
        return np.min(np.concatenate([getattr(self, name) if structure == "positive"
                                      else getattr(self, name).diagonal()
                                      for name, structure in self.factors
                                      if structure != "free"]))

    def param_count(self) -> int:
        """Factor entries the group lets vary: a triangular factor counts its
        triangle, any other factor all its entries."""
        shapes = self.factor_shapes(*(getattr(self, f) for f in self.shape_fields))
        return sum(s[0] * (s[0] + 1) // 2 if structure in ("upper", "lower") else math.prod(s)
                   for (_, structure), s in zip(self.factors, shapes))

    def materialize_q(self) -> np.ndarray:
        """Dense Q in flat coordinates; test and diagnostic helper."""
        raise NotImplementedError

    def _check_dim(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise _wrong_length(self.dim, v)
        return v


class DensePrecond(Preconditioner):
    """Full preconditioner with an upper-triangular Cholesky-like factor."""

    tag = 1
    shape_fields = ("dim",)
    factors = (("q", "upper"),)

    @classmethod
    def _factor_shapes(cls, dim):
        return [(dim, dim)]

    def _apply(self, g):
        return self.q.T.dot(self.q.dot(g))

    def _apply_inv(self, v):
        w = tri_solve(self.q, v, transpose=True)
        return tri_solve(self.q, w)

    @_quiet
    def _pair_gradient(self, dt, dg):
        a = self.q.dot(dg)
        b = _tri_solve_unchecked(self.q, dt, transpose=True)
        return _zero_strict_lower(a[:, None] * a - b[:, None] * b)

    def _update(self, dt, dg, step):
        # q needs no scan: q[i, j] reaches a[i] = (Q dg)[i] and so grad[i, i].
        grad = self._pair_gradient(dt, dg)
        (nrm,) = _finite_max_norms(grad)
        if nrm > 0.0:
            self.q = _triangular_step(self.q, grad, step / nrm)

    def materialize_q(self):
        return self.q.copy()


class DiagPrecond(Preconditioner):
    """Diagonal preconditioner; its criterion optimum is the equilibration rule."""

    tag = 2
    shape_fields = ("dim",)
    factors = (("q", "positive"),)

    @classmethod
    def _factor_shapes(cls, dim):
        return [(dim,)]

    def _apply(self, g):
        return self.q * self.q * g

    def _apply_inv(self, v):
        return v / (self.q * self.q)

    def _pair_gradient(self, dt, dg):
        a = self.q * dg
        b = dt / self.q
        return a * a - b * b

    def _update(self, dt, dg, step):
        _scan_factors(self)  # no norm test here raises: an overflow is rejected
        grad = self._pair_gradient(dt, dg)
        nrm = max_norm(grad)
        if nrm == 0.0:
            return
        cand = self.q - (step / nrm) * grad * self.q
        if _admissible(cand):
            self.q = cand

    def materialize_q(self):
        return np.diag(self.q)


def closed_form_diagonal(m2_theta: np.ndarray, m2_g: np.ndarray) -> np.ndarray:
    """Optimal diagonal of P given second moments of the probe pair entries.

    Returns sqrt(m2_theta / m2_g) elementwise. With unit m2_theta this is the
    equilibration preconditioner that ESGD uses.
    """
    m2_theta = np.asarray(m2_theta, dtype=float)
    m2_g = np.asarray(m2_g, dtype=float)
    if m2_theta.shape != m2_g.shape:
        raise ContractViolationError("moment vectors must share a shape")
    if np.any(m2_theta <= 0.0):
        raise ContractViolationError("m2_theta must be strictly positive")
    if np.any(m2_g <= 0.0):
        raise DegenerateCurvatureError("zero entry in gradient second moment")
    return np.sqrt(m2_theta / m2_g)


class KronPrecond(Preconditioner):
    """Kronecker-factored preconditioner for one (M, N) matrix block.

    Both factors are upper triangular with positive diagonals; each takes its
    own normalized relative-gradient step.
    """

    tag = 4
    shape_fields = ("m", "n")
    factors = (("q1", "upper"), ("q2", "upper"))

    @classmethod
    def _factor_shapes(cls, m, n):
        return [(m, m), (n, n)]

    # v.reshape(n, m).T is v.reshape((m, n), order="F") without the keyword
    # (column-major matricization); g.T.ravel() flattens back.

    def _apply(self, g):
        q1, q2 = self.q1, self.q2
        return q1.T.dot(q1.dot(g.reshape(self.n, self.m).T).dot(q2.T)).dot(q2).T.ravel()

    def _apply_inv(self, v):
        x = v.reshape(self.n, self.m).T
        x = tri_solve(self.q1, x, transpose=True)
        x = tri_solve(self.q1, x)
        x = tri_solve(self.q2, x.T, transpose=True)
        x = tri_solve(self.q2, x)
        return x.ravel()

    @_quiet
    def _pair_gradient(self, dt, dg):
        m, n, q1, q2 = self.m, self.n, self.q1, self.q2
        dt, dg = dt.reshape(n, m).T, dg.reshape(n, m).T
        a = q1.dot(dg).dot(q2.T)
        # bt = Q1^{-T} dT Q2^{-1}. OpenBLAS solves a 1x1 system with several
        # right-hand sides (not one) by multiplying with the pivot's reciprocal,
        # so a 1 x n or m x 1 block does that itself, for the same bits.
        bt = dt * (1.0 / q1[0, 0]) if m == 1 < n else _tri_solve_unchecked(q1, dt, transpose=True)
        bt = (bt * (1.0 / q2[0, 0]) if n == 1 < m
              else _tri_solve_unchecked(q2, bt.T, transpose=True).T)
        g1 = _zero_strict_lower(a.dot(a.T) - bt.dot(bt.T))
        g2 = _zero_strict_lower(a.T.dot(a) - bt.T.dot(bt))
        return g1, g2

    def _update(self, dt, dg, step):
        # q1 and q2 need no scan: q1[i, j] reaches row i of a = Q1 dG Q2^T and so
        # g1[i, i]; q2[k, l] reaches column k and so g2[k, k].
        g1, g2 = self._pair_gradient(dt, dg)
        a1, a2 = np.abs(g1).ravel(), np.abs(g2).ravel()  # max_norm's steps, inline
        n1, n2 = a1[a1.argmax()], a2[a2.argmax()]
        if not (n1 < math.inf and n2 < math.inf):  # false for an inf or a nan
            raise NumericInputError("non-finite preconditioner gradient")
        if n1 > 0.0:
            self.q1 = _triangular_step(self.q1, g1, step / n1)
        if n2 > 0.0:
            self.q2 = _triangular_step(self.q2, g2, step / n2)

    def materialize_q(self):
        return np.kron(self.q2, self.q1)


class ScanPrecond(Preconditioner):
    """Scaling-and-normalization preconditioner for one (M, N) matrix block.

    Q1 is diagonal (output scaling, size M); Q2 is upper triangular with
    nonzeros only on its diagonal and last column (input normalization,
    size N). Their sparsity patterns are closed under multiplication, so
    multiplicative updates stay on the group.
    """

    tag = 5
    shape_fields = ("m", "n")
    factors = (("q1", "positive"), ("d2", "positive"), ("c2", "free"))

    @classmethod
    def _factor_shapes(cls, m, n):
        return [(m,), (n,), (n - 1,)]

    # Q2 is d2 on the diagonal and c2 above it in the last column, so X Q2^T
    # adds X's last column times c2 to the other columns of X * d2, and X Q2
    # adds X's other columns dotted with c2 to the last column of X * d2.

    def _apply(self, g):
        n, d2, c2, q1 = self.n, self.d2, self.c2, self.q1
        x = g.reshape(n, self.m).T
        y = x * d2  # X Q2^T
        if n > 1:
            y[:, :-1] += x[:, -1:] * c2
        z = y * d2  # (X Q2^T) Q2
        if n > 1:
            z[:, -1] += y[:, :-1].dot(c2)
        return ((q1 * q1)[:, None] * z).T.ravel()

    def _apply_inv(self, v):
        n, d2, c2, q1 = self.n, self.d2, self.c2, self.q1
        x = v.reshape(n, self.m).T / (q1 * q1)[:, None]
        y = x / d2  # solve Y Q2 = X
        if n > 1:
            y[:, -1] = (x[:, -1] - y[:, :-1].dot(c2)) / d2[-1]
        z = np.empty_like(y)  # solve Z Q2^T = Y
        z[:, -1] = y[:, -1] / d2[-1]
        if n > 1:
            z[:, :-1] = (y[:, :-1] - z[:, -1:] * c2) / d2[:-1]
        return z.T.ravel()

    def _pair_gradient(self, dt, dg):
        m, n, d2, c2, q1 = self.m, self.n, self.d2, self.c2, self.q1
        dt, dg = dt.reshape(n, m).T, dg.reshape(n, m).T
        a = dg * d2  # Q1 dG Q2^T
        if n > 1:
            a[:, :-1] += dg[:, -1:] * c2
        a = q1[:, None] * a
        x = dt / q1[:, None]
        bt = x / d2  # Q1^{-1} dT Q2^{-1}
        if n > 1:
            bt[:, -1] = (x[:, -1] - bt[:, :-1].dot(c2)) / d2[-1]
        aa, bb = a * a, bt * bt
        g1 = np.add.reduce(aa, 1) - np.add.reduce(bb, 1)
        gd = np.add.reduce(aa, 0) - np.add.reduce(bb, 0)
        gc = a[:, :-1].T.dot(a[:, -1]) - bt[:, :-1].T.dot(bt[:, -1]) if n > 1 else np.zeros(0)
        return g1, gd, gc

    def _update(self, dt, dg, step):
        _scan_factors(self)  # no norm test here raises: an overflow is rejected
        g1, gd, gc = self._pair_gradient(dt, dg)
        q1, d2, c2 = self.q1, self.d2, self.c2
        # max_norm's steps, inline; an inf or nan norm leaves a candidate
        # that _admissible rejects, or fails the > 0 test
        a1, ad = np.abs(g1), np.abs(gd)
        n1 = a1[a1.argmax()]
        if n1 > 0.0:
            cand = q1 - (step / n1) * g1 * q1
            if _admissible(cand):
                self.q1 = cand

        n2 = ad[ad.argmax()]
        if gc.size:
            ac = np.abs(gc)
            n2 = max(n2, ac[ac.argmax()])
        if n2 > 0.0:
            mu = step / n2
            cand_d = d2 - mu * gd * d2
            cand_c = c2 - mu * (gd[:-1] * c2 + d2[-1] * gc)
            if _admissible(cand_d):
                self.d2 = cand_d
                self.c2 = cand_c

    def materialize_q2(self) -> np.ndarray:
        """Dense normalization factor Q2: d2 on the diagonal, c2 above it in the last column."""
        q2 = np.diag(self.d2)
        if self.n > 1:
            q2[:-1, -1] = self.c2
        return q2

    def materialize_q(self):
        return np.kron(self.materialize_q2(), np.diag(self.q1))


class SpluPrecond(Preconditioner):
    """Sparse-LU preconditioner: Q = L U with banded-plus-diagonal triangles.

    Apart from the diagonals, only the first r columns of L and the first r
    rows of U are nonzero, so every product with Q, Q^T, Q^{-1} or Q^{-T}
    costs O(rL) using the block inverse formulas for the 2x2 partition.
    """

    tag = 3
    shape_fields = ("dim", "r")
    factors = (("l1", "lower"), ("l2", "free"), ("l3", "positive"),
               ("u1", "upper"), ("u2", "free"), ("u3", "positive"))

    @classmethod
    def _factor_shapes(cls, dim, order):
        if order > dim:
            raise ContractViolationError(f"order r must be at most dim={dim}, got {order}")
        k = dim - order
        return [(order, order), (k, order), (k,), (order, order), (order, k), (k,)]

    def _split(self, v):
        return v[: self.r], v[self.r:]

    # The four products of v = (v1, v2), each as the two blocks of its result.
    # Their solves are unchecked: the update kernel's norm test catches what
    # they let through, and the public paths check each inverse product's
    # inputs and result (see _checked and _finite).

    def _q(self, v1, v2):
        w1 = self.u1.dot(v1) + self.u2.dot(v2)
        return self.l1.dot(w1), self.l2.dot(w1) + self.l3 * (self.u3 * v2)

    def _qt(self, v1, v2):
        w1 = self.l1.T.dot(v1) + self.l2.T.dot(v2)
        return self.u1.T.dot(w1), self.u2.T.dot(w1) + self.u3 * (self.l3 * v2)

    def _qinv(self, v1, v2):
        y1 = _tri_solve_unchecked(self.l1, v1, lower=True)
        x2 = (v2 - self.l2.dot(y1)) / self.l3 / self.u3
        return _tri_solve_unchecked(self.u1, y1 - self.u2.dot(x2)), x2

    def _qinvt(self, v1, v2):
        w1 = _tri_solve_unchecked(self.u1, v1, transpose=True)
        x2 = (v2 - self.u2.T.dot(w1)) / self.u3 / self.l3
        return _tri_solve_unchecked(self.l1, w1 - self.l2.T.dot(x2), lower=True,
                                    transpose=True), x2

    _PRODUCTS = {"q": _q, "qt": _qt, "qinv": _qinv, "qinvt": _qinvt}

    def matvec(self, v: np.ndarray, which: str) -> np.ndarray:
        """Product with Q, Q^T, Q^{-1} or Q^{-T} (which in {q, qt, qinv, qinvt})."""
        inverse = which in ("qinv", "qinvt")
        v = self._check_dim(v)
        product = self._PRODUCTS.get(which)
        if product is None:
            raise ContractViolationError(f"unknown matvec selector {which!r}")
        x = np.concatenate(product(self, *self._split(self._checked(v) if inverse else v)))
        return self._finite(x) if inverse else x

    def _checked(self, v):
        """v, once v and every factor are finite (an inverse product's input)."""
        if not all(map(_all_finite, (v, self.l1, self.l2, self.l3, self.u1, self.u2, self.u3))):
            raise NumericInputError("non-finite entries in an inverse product's input")
        return v

    @staticmethod
    def _finite(x):
        """x, the result of an inverse product, once it is finite: from finite
        inputs, a solve that overflowed leaves an inf or a nan there."""
        if not _all_finite(x):
            raise NumericInputError("non-finite inverse product")
        return x

    def _apply(self, g):
        return np.concatenate(self._qt(*self._q(*self._split(g))))

    def _apply_inv(self, v):
        v1, v2 = self._qinvt(*self._split(self._checked(v)))
        return self._finite(np.concatenate(self._qinv(v1, v2)))

    def materialize_lu(self):
        """Dense (L, U); test and diagnostic helper, O(L^2) storage."""
        r = self.r
        low = np.diag(np.concatenate([np.zeros(r), self.l3]))
        low[:r, :r] = self.l1
        low[r:, :r] = self.l2
        up = np.diag(np.concatenate([np.zeros(r), self.u3]))
        up[:r, :r] = self.u1
        up[:r, r:] = self.u2
        return low, up

    def materialize_q(self) -> np.ndarray:
        """Dense Q = L U; test and diagnostic helper, O(L^2) storage."""
        low, up = self.materialize_lu()
        return low @ up

    @_quiet
    def _gradient(self, dt, dg):
        """The pair's gradient as [gl1; gl2], gl3, [gu1, gu2] and gu3.

        With a = Q dg and b = Q^{-T} dt, so P dg = Q^T a and P^{-1} dt = Q^{-1} b,
        the L side is the projection of a a^T - b b^T onto {first r columns,
        diagonal} and the U side that of P dg dg^T - dt (P^{-1} dt)^T onto
        {first r rows, diagonal}. Each side's r columns or rows come from one
        outer-product pair over the full vectors.
        """
        g1, g2 = self._split(dg)
        x1, x2 = self._split(dt)
        qg1, qg2 = self._q(g1, g2)
        iqtx1, iqtx2 = self._qinvt(x1, x2)
        pg1, pg2 = self._qt(qg1, qg2)
        ipx1, ipx2 = self._qinv(iqtx1, iqtx2)
        r = self.r
        strict_lower = _strict_lower_mask(r)  # copyto writes through a view; putmask copies it
        gl = (np.concatenate((qg1, qg2))[:, None] * qg1
              - np.concatenate((iqtx1, iqtx2))[:, None] * iqtx1)
        np.copyto(gl[:r].T, 0.0, where=strict_lower)  # gl1 is the lower part
        gu = pg1[:, None] * dg - x1[:, None] * np.concatenate((ipx1, ipx2))
        np.copyto(gu[:, :r], 0.0, where=strict_lower)  # gu1 the upper part
        return gl, qg2 * qg2 - iqtx2 * iqtx2, gu, pg2 * g2 - x2 * ipx2

    def _pair_gradient(self, dt, dg):
        """(gl1, gl2, gl3, gu1, gu2, gu3): the gradients of l1, l2, l3, u1, u2 and u3."""
        gl, gl3, gu, gu3 = self._gradient(dt, dg)
        r = self.r
        return gl[:r], gl[r:], gl3, gu[:, :r], gu[:, r:], gu3

    def _update(self, dt, dg, step):
        # No factor needs a scan: u1 and u2 reach w1 = u1 g1 + u2 g2 and through
        # it all of l1 w1, as l1 does; l2, l3 and u3 reach l2 w1 + l3 (u3 g2).
        # So diag(gl1) or gl3 sees every entry.
        gl, gl3, gu, gu3 = self._gradient(dt, dg)
        al = np.abs(np.concatenate((gl.ravel(), gl3)))  # max_norm's steps, inline
        au = np.abs(np.concatenate((gu.ravel(), gu3)))
        nl, nu = al[al.argmax()], au[au.argmax()]
        if not (nl < math.inf and nu < math.inf):  # false for an inf or a nan
            raise NumericInputError("non-finite preconditioner gradient")
        r = self.r
        if nl > 0.0:
            mu = step / nl
            cand_l1 = self.l1 - mu * gl[:r].dot(self.l1)
            cand_l2 = self.l2 - mu * (gl[r:].dot(self.l1) + gl3[:, None] * self.l2)
            cand_l3 = self.l3 - mu * gl3 * self.l3
            # the diagonals alone would let an inf off the diagonal through
            if (_admissible(cand_l1.diagonal(), cand_l3)
                    and all(map(_all_finite, (cand_l1, cand_l2, cand_l3)))):
                self.l1, self.l2, self.l3 = cand_l1, cand_l2, cand_l3

        if nu > 0.0:
            mu = step / nu
            cand_u1 = self.u1 - mu * self.u1.dot(gu[:, :r])
            cand_u2 = self.u2 - mu * (self.u1.dot(gu[:, r:]) + gu3[None, :] * self.u2)
            cand_u3 = self.u3 - mu * gu3 * self.u3
            if (_admissible(cand_u1.diagonal(), cand_u3)
                    and all(map(_all_finite, (cand_u1, cand_u2, cand_u3)))):
                self.u1, self.u2, self.u3 = cand_u1, cand_u2, cand_u3


class DirectSumPrecond(Preconditioner):
    """Direct sum of per-block preconditioners tiling the flat parameter vector.

    Blocks are orthogonal, so each one learns from its own slice of a pair
    and takes its own normalized step.
    """

    tag = 6

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise ContractViolationError("direct sum needs at least one block")
        self.blocks = blocks
        self.slices = []
        start = 0
        for _, p in blocks:
            self.slices.append(slice(start, start + p.dim))
            start += p.dim
        self.dim = start

    # A checked vector's slice is a checked vector of its block's dim.
    def _apply(self, g):
        return np.concatenate([p._apply(g[s]) for (_, p), s in zip(self.blocks, self.slices)])

    def _apply_inv(self, v):
        return np.concatenate([p._apply_inv(v[s]) for (_, p), s in zip(self.blocks, self.slices)])

    def update(self, pair, step):
        # The TangentPair is finite, 1-D, float and of equal length, so a slice
        # needs only the all-zero test; each block's update checks the step and
        # the slice's length. No block changes before every slice has passed.
        dt, dg = pair.delta_theta, pair.delta_g
        if len(dt) != self.dim:
            raise _wrong_length(self.dim, dt)
        subs = [_BlockPair(dt[s], dg[s]) for s in self.slices]
        for sub in subs:
            if not np.count_nonzero(sub.delta_theta):
                raise ContractViolationError("delta_theta must not be all zero")
        for (_, p), sub in zip(self.blocks, subs):
            p.update(sub, step)

    def min_diag(self):
        return np.min([p.min_diag() for _, p in self.blocks])

    def param_count(self):
        return sum(p.param_count() for _, p in self.blocks)

    def materialize_q(self):
        q = np.zeros((self.dim, self.dim))
        for (_, p), s in zip(self.blocks, self.slices):
            q[s, s] = p.materialize_q()
        return q


def estimation_criterion(p: Preconditioner, pairs) -> float:
    """Empirical estimation criterion over a set of tangent pairs."""
    total = 0.0
    count = 0
    for pair in pairs:
        total += float(pair.delta_g @ p.apply(pair.delta_g))
        total += float(pair.delta_theta @ p.apply_inv(pair.delta_theta))
        count += 1
    if count == 0:
        raise ContractViolationError("criterion needs at least one pair")
    return total / count


# Each family by its variant name; the CLI lists them in this order.
FAMILIES = {"dense": DensePrecond, "diag": DiagPrecond, "splu": SpluPrecond,
            "kron": KronPrecond, "scan": ScanPrecond}


def make_preconditioner(variant: str, layout, splu_order: int = 10,
                        per_block: bool = False) -> Preconditioner:
    """Build a preconditioner for a parameter layout.

    dense/diag/splu act on the whole flattened vector by default (one block
    per tensor with ``per_block=True``, splu's order clamped to its dim);
    kron/scan always get one factored block per layout tensor, treating
    vector tensors as single-column matrices.
    """
    cls = FAMILIES.get(variant)
    if cls is None:
        raise ContractViolationError(f"unknown preconditioner variant {variant!r}")

    def flat(dim):
        return cls(dim, min(splu_order, dim)) if cls is SpluPrecond else cls(dim)

    def block(shape):
        if len(shape) not in (1, 2):
            raise ContractViolationError(f"unsupported tensor rank {len(shape)}")
        return cls(shape[0], shape[1] if len(shape) == 2 else 1)

    if "dim" not in cls.shape_fields:  # an (m, n) block family
        return DirectSumPrecond([(b.name, block(b.shape)) for b in layout.blocks])
    if per_block:
        return DirectSumPrecond([(b.name, flat(b.size)) for b in layout.blocks])
    return flat(layout.size)
