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
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .curvature import TangentPair
from .errors import (
    ContractViolationError,
    DegenerateCurvatureError,
    DegenerateStateError,
    NumericInputError,
)
from .linalg import _all_finite, tri_solve

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
# and update a candidate, so no path reaches a state the kernels could not.
_REJECT_FLOOR = 1e-150
# The margin delta of a state's bound (see update) for the rounding of one step.
_MARGIN = 4e-15
# Error state of update and apply_inv, whose checks catch what it hides.
_quiet = np.errstate(all="ignore")
# The identity state of a factor of each structure, given its shape.
_IDENTITY = {"upper": lambda s: np.eye(s[0]), "lower": lambda s: np.eye(s[0]),
             "positive": np.ones, "free": np.zeros}


# The entries a factor of each structure may not hold, given its side. They lie
# outside its group and outside the group's algebra, where a relative gradient
# must lie for a step to stay on the group: so update projects each gradient
# by this, set_factors refuses a factor holding one and verify draws by it.
_OUTSIDE = {"upper": lambda n: np.tri(n, k=-1, dtype=bool),
            "lower": lambda n: np.tri(n, k=-1, dtype=bool).T, "positive": None, "free": None}
# The entries of a factor of each structure that are its diagonal, which the group
# keeps positive: an upper or lower factor's main diagonal, every entry of a positive
# factor, and none of a free one. _extent alone reads it.
_DIAGONAL = {"upper": np.ndarray.diagonal, "lower": np.ndarray.diagonal,
             "positive": lambda a: a, "free": lambda a: a[:0]}


@lru_cache(maxsize=128)
def _outside(structure: str, n: int):
    """_OUTSIDE of a factor of the structure and side n as a read-only mask, or
    None when the factor may hold every entry."""
    if _OUTSIDE[structure] is None or n == 1:
        return None
    mask = np.ascontiguousarray(_OUTSIDE[structure](n))
    mask.flags.writeable = False
    return mask


def _project(structure: str, g: np.ndarray) -> np.ndarray:
    """g with the entries a factor of the structure may not hold zeroed in place,
    which copyto does through a view too (splu's blocks)."""
    outside = _outside(structure, len(g))
    if outside is not None:
        np.copyto(g, 0.0, where=outside)
    return g


# The kernels call ndarray.dot rather than @, ufunc reductions rather than
# ndarray.sum, and take a vector's minimum as v[v.argmin()] (nan when an entry
# is nan): on their tiny arrays each skips a layer that costs about as much as
# the arithmetic, and the bits are the same.


def _extent(structure: str, a: np.ndarray) -> tuple:
    """The extent (hi, lo) of a factor array a of the structure, as Python floats:
    hi is its largest entry magnitude (nan or inf when an entry is not finite)
    and lo its smallest diagonal entry (_DIAGONAL; inf when it has none). Each
    factor is reduced once, here: its extent admits it (_invariant_fault) and
    gives the state's exact bound (see update)."""
    m, d = np.abs(a), _DIAGONAL[structure](a)  # argmax and argmin pick a nan first
    return (m.item(m.argmax()) if m.size else 0.0), (d.item(d.argmin()) if d.size else math.inf)


def _invariant_fault(hi: float, lo: float):
    """The error class of what breaks the group invariant in a factor of the
    extent (hi, lo), or None: NumericInputError for a non-finite entry,
    DegenerateStateError for a diagonal entry below _REJECT_FLOOR. This is the
    invariant's one statement: set_factors raises it, update admits no candidate
    that has one, and verify counts the updates that leave one."""
    return (NumericInputError if not hi < math.inf  # true for a nan too
            else None if lo >= _REJECT_FLOOR else DegenerateStateError)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only, as every factor array a state holds is."""
    a.setflags(write=False)
    return a


def _step(name: str, structure: str, p, mu: float, g: np.ndarray) -> tuple:
    """The candidate of p's factor name, a one-factor side: q - mu g*q for a
    positive factor and q - mu g q for a triangular one. A 1x1 q takes the same
    steps on scalars (numpy dots two 1x1 arrays as one product)."""
    q = getattr(p, name)
    if structure == "positive":
        return (q - mu * g * q,)
    if q.shape[0] == 1:
        return (np.array([[q[0, 0] - mu * (g[0, 0] * q[0, 0])]]),)
    c = g.dot(q)  # q - mu g q, formed in place: no other n x n temporary
    c *= mu
    return (np.subtract(q, c, out=c),)


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
    - ``_factor_shapes(*shape_fields)``: the factors' shapes;
    - ``sides``: the factors that share one normalized step, as (names,
      candidate) pairs in factor order; the default is one side per factor.

    A family is its declaration, ``_apply``, ``_apply_inv``,
    ``_pair_gradient`` and its sides. ``_apply`` and ``_apply_inv`` act on a
    float vector of its dim, ``_pair_gradient(dt, dg)`` gives one writable
    relative gradient per factor in factor order, unprojected, and a side's
    candidate method takes the step and its factors' gradients and returns
    their candidates. A one-factor side's candidate follows from the
    factor's structure (``_step``). Which entries a factor of each structure
    may not hold is declared once (``_OUTSIDE``: the strict lower triangle of
    an upper factor, the strict upper one of a lower factor, none else).
    ``FAMILIES`` lists the families by variant name.
    The constructor (the identity state), ``factor_shapes`` (each shape field
    checked to be at least 1, nothing allocated), ``set_factors``,
    ``min_diag``, ``param_count`` and the checkpoint record derive from this
    declaration. ``set_factors`` is the one checked way to set factors: the
    constructor and it establish the group invariant, and ``update`` keeps it.
    The invariant is stated once: ``_extent`` reduces a factor array to its
    extent (hi, lo), its largest entry magnitude and its smallest diagonal
    entry (``_DIAGONAL`` says which entries those are), and
    ``_invariant_fault`` tests that extent: hi finite, lo at least the floor.
    ``set_factors``, ``update``'s scan and verify's positivity count admit by
    that test, and the exact bound and ``min_diag`` read the extents.
    Every factor array a state holds is read-only: the constructor's, each
    admitted candidate, and ``set_factors``' copies, through which
    ``copy.deepcopy`` and ``pickle`` rebuild a state too. So a state is valid
    by construction and no kernel checks its factors. A family without a
    ``dim`` field is an (m, n) matrix block with ``dim = m * n``. ``apply``
    checks the vector once and runs the kernel (a direct sum's kernel runs
    each block's kernel on its slice); ``apply_inv`` runs its kernel under
    one contract for every family.

    ``update`` is every family's one relative-gradient step. It takes a
    TangentPair, which has proved its two vectors finite, 1-D, float and of
    equal length, and checks the step and the pair's length. Then, under
    ``_quiet``, so numpy's error state adds no warning or FloatingPointError,
    it computes the pair gradient, projects each factor's gradient onto its
    support (``_OUTSIDE``), which is the algebra of its group, and takes the
    max norm of each side. One policy:
    a norm that is not finite (a gradient that overflows from finite inputs)
    raises NumericInputError before any factor is assigned. Each side with a
    nonzero norm forms its candidates with the step normalized by that norm.
    One rule: the candidates are admitted, read-only, only when none breaks
    the invariant ``set_factors`` enforces (``_invariant_fault`` of each
    candidate's ``_extent``: every entry finite, every diagonal entry at least
    the floor); else the side keeps its factors.

    Each state carries a proven bound ``(hi, lo)``: every factor entry is at
    most hi in magnitude and every diagonal entry at least lo. The
    constructor and ``set_factors`` set it exactly, and so the loader,
    ``verify``, ``copy.deepcopy`` and ``pickle`` do too. When the bound, the
    step and the side's norm prove the candidates pass the rule (the argument
    is written above the test in ``update``), they are admitted without
    scanning them, and the bound advances in closed form to
    ``(hi (1 + k step + delta), lo (1 - step - delta))``, with k two plus the
    largest factor dimension and delta 4e-15. Otherwise the scan remains the
    rule: the side is admitted by ``_invariant_fault`` and the bound is
    re-derived exactly, from the extents that admitted its candidates and
    those of the factors not scanned. Both ways admit the same candidates.
    """

    dim: int
    tag: int
    shape_fields = ()
    factors = ()
    sides = None

    def __init__(self, *shape):
        shapes = self.factor_shapes(*shape)
        vars(self).update(zip(self.shape_fields, shape))
        if "dim" not in self.shape_fields:
            self.dim = self.m * self.n
        for (name, structure), s in zip(self.factors, shapes):
            setattr(self, name, _frozen(_IDENTITY[structure](s)))
        self._k = 2 + max(max(s) for s in shapes)  # see update
        self._bound = self._exact_bound()

    def __init_subclass__(cls):
        # each side as (the slice of its gradients, its names, their structures,
        # its candidate method), a one-factor side's from the factor's structure
        structures, cls._sides, i = dict(cls.factors), [], 0
        for names, candidate in cls.sides or [((name,), None) for name, _ in cls.factors]:
            cls._sides.append((slice(i, i + len(names)), names, [structures[n] for n in names],
                               candidate or partial(_step, names[0], structures[names[0]])))
            i += len(names)
        # (index, structure) of each factor whose gradient update projects
        cls._projected = [(i, s) for i, (_, s) in enumerate(cls.factors) if _OUTSIDE[s]]

    def __setstate__(self, state):
        # copy.deepcopy and pickle rebuild each array writable and unchecked
        vars(self).update(state)
        self.set_factors(**{name: getattr(self, name) for name, _ in self.factors})

    def apply(self, g: np.ndarray) -> np.ndarray:
        """P g; ContractViolationError unless g is a vector of this dim."""
        return self._apply(self._check_dim(g))

    @_quiet
    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v: ContractViolationError unless v is a vector of this dim,
        NumericInputError unless v is finite, the kernel run without a numpy
        warning, and NumericInputError unless its result is finite (from a
        state at the floor, a finite v can overflow it).
        """
        v = self._check_dim(v)
        if not _all_finite(v):
            raise NumericInputError("non-finite entries in an inverse product's input")
        x = self._apply_inv(v)
        if not _all_finite(x):
            raise NumericInputError("non-finite inverse product")
        return x

    @classmethod
    def factor_shapes(cls, *shape) -> list:
        """The factors' shapes; ContractViolationError for rejected shape fields."""
        for field, value in zip(cls.shape_fields, shape):
            if value < 1:
                raise ContractViolationError(
                    f"{cls.__name__} dimension {field} must be at least 1, got {value}")
        return cls._factor_shapes(*shape)

    @_quiet
    def update(self, pair: TangentPair, step: float) -> None:
        """One normalized relative-gradient step on the pair (dt, dg)."""
        if not 0.0 < step < 1.0:
            raise ContractViolationError("normalized step size must lie in (0, 1)")
        dt = pair.delta_theta
        if len(dt) != self.dim:  # the pair's two vectors have one length
            raise _wrong_length(self.dim, dt)
        grads = self._pair_gradient(dt, pair.delta_g)
        for i, structure in self._projected:
            _project(structure, grads[i])
        norms = []
        for g in grads:  # argmax picks a nan first; item gives a Python float
            a = np.abs(g)
            norms.append(a.item(a.argmax()) if a.size else 0.0)
            if not norms[-1] < math.inf:  # false for a nan too
                raise NumericInputError("non-finite preconditioner gradient")
        # The proof that admits a side without _invariant_fault. The bound
        # (hi, lo) has every factor entry at most hi in magnitude and every
        # diagonal entry (every entry of a positive factor) at least lo. With
        # u = 2^-53, mu = fl(step / nrm) and every gradient entry g of the side
        # at most nrm in magnitude, mu |g| <= step (1 + u). nrm in
        # [1e-100, 1e100] and hi <= 1e100 keep mu and every product below
        # finite (a subnormal nrm makes mu inf, and a candidate inf or nan).
        # - "upper", "lower" (q - mu g q, splu's u1 - mu u1 g): an entry of g q
        #   sums n <= k - 2 products of at most nrm hi, so a candidate entry is
        #   at most hi (1 + n step (1 + n u)) (1 + u) <= hi (1 + k step + delta).
        #   g is projected triangular as q is, so the diagonal of g q is g_ii q_ii
        #   alone (the other products are exact zeros): a candidate's diagonal entry
        #   is at least q_ii (1 - step (1 + u)^3) (1 - u) >= lo (1 - step - delta).
        # - "positive" (q - mu g q entrywise): the same with n = 1.
        # - "free" (scan's c2, splu's l2 and u2): an entry sums two products
        #   (scan) or r + 1 (splu), at most k - 1, so the same upper bound.
        # Near step = 1, mu g_ii can round to 1 or above and a diagonal entry
        # to 0 or below: there 1 - step - delta < 0 and the proof is not taken.
        # lo (1 - step - delta) >= 1e-140 keeps every diagonal term normal (an
        # underflow elsewhere errs by under 1e-223, far below delta lo) and
        # each candidate diagonal above the floor. So the proof admits only
        # what _invariant_fault admits, and the bound advances in closed form;
        # a side it does not cover is scanned, and the bound re-derived.
        hi, lo = self._bound
        shrink = 1.0 - step - _MARGIN
        proven = hi <= 1e100 and lo * shrink >= 1e-140
        scanned = None  # once a side is scanned: the extent of each candidate it admitted
        for part, names, structures, candidate in self._sides:
            nrm = max(norms[part])
            if nrm > 0.0:
                cands = candidate(self, step / nrm, *grads[part])
                if not (proven and 1e-100 <= nrm <= 1e100):
                    scanned, extents = scanned or {}, list(map(_extent, structures, cands))
                    if any(_invariant_fault(*e) for e in extents):
                        continue
                    scanned.update(zip(names, extents))
                for name, c in zip(names, cands):
                    setattr(self, name, _frozen(c))
        self._bound = (self._exact_bound(scanned) if scanned is not None
                       else (hi * (1.0 + self._k * step + _MARGIN), lo * shrink))

    def set_factors(self, **arrays) -> "Preconditioner":
        """Set the named factors to float copies of the arrays; returns self.

        The copies are read-only; the arrays passed stay as they are. Nothing
        is assigned unless every array passes, in this order:
        ContractViolationError for an unknown name, an array that does not
        hold real numbers or a wrong shape, NumericInputError for a non-finite
        entry, DegenerateStateError for a diagonal entry below the floor (so
        for a zero or negative one) and ContractViolationError for an entry
        the factor's structure may not hold (``_OUTSIDE``).
        """
        structures = dict(self.factors)
        family = type(self).__name__
        checked, extents = {}, {}
        for name, a in arrays.items():
            if name not in structures:
                raise ContractViolationError(f"{family} has no factor {name!r}")
            structure, shape = structures[name], getattr(self, name).shape
            try:
                a = np.array(a)  # ValueError for a ragged nesting
                if a.dtype.kind not in "biuf":
                    raise ValueError
            except ValueError:
                raise ContractViolationError(f"factor {name} must hold real numbers") from None
            a = a.astype(float, copy=False)
            if a.shape != shape:
                raise ContractViolationError(
                    f"factor {name} of shape {shape} expected, got shape {a.shape}")
            extents[name] = _extent(structure, a)
            fault = _invariant_fault(*extents[name])
            if fault:
                raise fault(f"non-finite entries in factor {name}" if fault is NumericInputError
                            else f"{family} factor diagonal collapsed: "
                                 f"entry below {_REJECT_FLOOR:g} in factor {name}")
            outside = _outside(structure, shape[0])
            if outside is not None and a[outside].any():
                raise ContractViolationError(
                    f"entries outside the {structure} triangle of factor {name}")
            checked[name] = _frozen(a)
        vars(self).update(checked)
        if checked:  # a direct sum, which has no factors, carries no bound
            self._bound = self._exact_bound(extents)
        return self

    def _exact_bound(self, known=None) -> tuple:
        """The state's bound (see update), exactly: the largest hi and the
        smallest lo of the factors' extents, known's where it maps a factor's
        name to its extent and reduced here otherwise."""
        his, los = zip(*[(known or {}).get(name) or _extent(structure, getattr(self, name))
                         for name, structure in self.factors])
        return max(his), min(los)

    def min_diag(self) -> float:
        """Smallest diagonal entry over the factors, the smallest lo of their
        extents; the group needs it positive. It is nan when a diagonal entry
        is nan, which np.min keeps and Python's min may pass over."""
        return np.min([_extent(structure, getattr(self, name))[1]
                       for name, structure in self.factors])

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

    def _pair_gradient(self, dt, dg):
        a = self.q.dot(dg)
        b = tri_solve(self.q, dt, transpose=True)
        g = a[:, None] * a  # a a^T - b b^T, formed in place
        g -= b[:, None] * b
        return (g,)

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
        return (a * a - b * b,)

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
    if not np.all((m2_theta > 0.0) & (m2_theta < np.inf)):  # false for a nan too
        raise ContractViolationError("m2_theta must be finite and strictly positive")
    if not np.all((m2_g > 0.0) & (m2_g < np.inf)):
        raise DegenerateCurvatureError("zero, inf or nan entry in gradient second moment")
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

    def _pair_gradient(self, dt, dg):
        m, n, q1, q2 = self.m, self.n, self.q1, self.q2
        dt, dg = dt.reshape(n, m).T, dg.reshape(n, m).T
        a = q1.dot(dg).dot(q2.T)
        # bt = Q1^{-T} dT Q2^{-1}
        bt = tri_solve(q2, tri_solve(q1, dt, transpose=True).T, transpose=True).T
        return a.dot(a.T) - bt.dot(bt.T), a.T.dot(a) - bt.T.dot(bt)

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

    def _q2_candidates(self, mu, gd, gc):
        d2, c2 = self.d2, self.c2
        return d2 - mu * gd * d2, c2 - mu * (gd[:-1] * c2 + d2[-1] * gc)

    sides = ((("q1",), None), (("d2", "c2"), _q2_candidates))

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
    takes the block inverse formulas for the 2x2 partition. Measured on a
    2-core host (best of 7x300 calls, one compute thread), its update costs
    more than dense's at dim 16 (64.6 against 14.3 us, r = 4) and less at
    dim 128 (85.3 against 154.6 us, r = 10), while dense's apply stays
    cheaper through dim 128 (4.2 against 11.3 us).
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

    def _q(self, v1, v2):
        w1 = self.u1.dot(v1) + self.u2.dot(v2)
        return self.l1.dot(w1), self.l2.dot(w1) + self.l3 * (self.u3 * v2)

    def _qt(self, v1, v2):
        w1 = self.l1.T.dot(v1) + self.l2.T.dot(v2)
        return self.u1.T.dot(w1), self.u2.T.dot(w1) + self.u3 * (self.l3 * v2)

    def _qinv(self, v1, v2):
        y1 = tri_solve(self.l1, v1, lower=True)
        x2 = (v2 - self.l2.dot(y1)) / self.l3 / self.u3
        return tri_solve(self.u1, y1 - self.u2.dot(x2)), x2

    def _qinvt(self, v1, v2):
        w1 = tri_solve(self.u1, v1, transpose=True)
        x2 = (v2 - self.u2.T.dot(w1)) / self.u3 / self.l3
        return tri_solve(self.l1, w1 - self.l2.T.dot(x2), lower=True, transpose=True), x2

    def _apply(self, g):
        return np.concatenate(self._qt(*self._q(*self._split(g))))

    def _apply_inv(self, v):
        return np.concatenate(self._qinv(*self._qinvt(*self._split(v))))

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

    def _pair_gradient(self, dt, dg):
        """(gl1, gl2, gl3, gu1, gu2, gu3): the gradients of l1, l2, l3, u1, u2 and u3.

        With a = Q dg and b = Q^{-T} dt, so P dg = Q^T a and P^{-1} dt = Q^{-1} b,
        the L side is a a^T - b b^T on {first r columns, diagonal} and the U
        side P dg dg^T - dt (P^{-1} dt)^T on {first r rows, diagonal}; update
        projects gl1 onto its lower triangle and gu1 onto its upper one. Each
        side's r columns or rows come from one outer-product pair over the
        full vectors.
        """
        g1, g2 = self._split(dg)
        x1, x2 = self._split(dt)
        qg1, qg2 = self._q(g1, g2)
        iqtx1, iqtx2 = self._qinvt(x1, x2)
        pg1, pg2 = self._qt(qg1, qg2)
        ipx1, ipx2 = self._qinv(iqtx1, iqtx2)
        r = self.r
        gl = (np.concatenate((qg1, qg2))[:, None] * qg1
              - np.concatenate((iqtx1, iqtx2))[:, None] * iqtx1)
        gu = pg1[:, None] * dg - x1[:, None] * np.concatenate((ipx1, ipx2))
        return (gl[:r], gl[r:], qg2 * qg2 - iqtx2 * iqtx2,
                gu[:, :r], gu[:, r:], pg2 * g2 - x2 * ipx2)

    def _l_candidates(self, mu, gl1, gl2, gl3):
        l1, l2, l3 = self.l1, self.l2, self.l3
        return (l1 - mu * gl1.dot(l1), l2 - mu * (gl2.dot(l1) + gl3[:, None] * l2),
                l3 - mu * gl3 * l3)

    def _u_candidates(self, mu, gu1, gu2, gu3):
        u1, u2, u3 = self.u1, self.u2, self.u3
        return (u1 - mu * u1.dot(gu1), u2 - mu * (u1.dot(gu2) + gu3[None, :] * u2),
                u3 - mu * gu3 * u3)

    sides = ((("l1", "l2", "l3"), _l_candidates), (("u1", "u2", "u3"), _u_candidates))


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
        # the family states under the sum, those of nested sums included
        self._states = [s for _, p in blocks
                        for s in (p._states if isinstance(p, DirectSumPrecond) else [p])]
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
        # the slice's length. No block changes before every slice has passed,
        # and if a block raises, every block keeps the factors and the bound it
        # had: the factors are read-only, so their references are the snapshot.
        dt, dg = pair.delta_theta, pair.delta_g
        if len(dt) != self.dim:
            raise _wrong_length(self.dim, dt)
        subs = [_BlockPair(dt[s], dg[s]) for s in self.slices]
        for sub in subs:
            if not np.count_nonzero(sub.delta_theta):
                raise ContractViolationError("delta_theta must not be all zero")
        saved = [vars(p).copy() for p in self._states]
        try:
            for (_, p), sub in zip(self.blocks, subs):
                p.update(sub, step)
        except BaseException:
            for p, attributes in zip(self._states, saved):
                vars(p).update(attributes)
            raise

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
