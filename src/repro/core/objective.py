"""The explained-variance objective and error formula (expression 2).

From Sabato & Kalai (ICML 2013), which the paper builds on: applying
the best linear regression to a table whose attribute ``a`` is the
average of ``b(a)`` crowd answers yields mean squared error

``Err = Var(a_t) - S_o^T (S_a + Diag(S_c(a)/b(a)))^{-1} S_o``.

The second term, the *explained variance* ``V(b)``, is what the budget
distribution maximizes; only attributes with ``b(a) > 0`` participate.

Two evaluation paths are provided:

* :func:`explained_variance` — the reference formula: assemble the
  support matrix and solve a fresh linear system.  ``O(k^3)`` per call
  over a support of ``k`` attributes.
* :class:`IncrementalObjective` — the allocator's hot path.  It
  maintains the inverse of ``S_a + Diag(S_c/b)`` across greedy grants:
  incrementing ``b(a)`` only perturbs one diagonal entry, so the
  inverse follows by a Sherman–Morrison rank-one update, and growing
  the support by one attribute follows by a bordered block-inverse
  update.  Candidate evaluation drops to ``O(1)`` (in-support) or
  ``O(k^2)`` (support-extending) instead of ``O(k^3)``.  Whenever an
  update is ill-conditioned (the singular/ridge regime) it falls back
  to the reference formula for that evaluation, so degenerate inputs
  take the byte-identical naive path.
"""

from __future__ import annotations

import copy

import numpy as np

#: Ridge added to the feature covariance when it is numerically singular.
RIDGE = 1e-10

#: Relative tolerance below which a Sherman–Morrison denominator or a
#: Schur complement is treated as numerically singular; the incremental
#: evaluator then defers to the reference formula (and its ridge).
_SINGULAR_TOL = 1e-12

#: Full inverse rebuilds are forced after this many incremental commits
#: so floating-point drift cannot accumulate across long greedy runs.
_REFRESH_EVERY = 64


def _solve_regularized(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs``, ridging the matrix when singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        scale = max(float(np.trace(matrix)) / max(len(rhs), 1), 1.0)
        return np.linalg.solve(matrix + RIDGE * scale * np.eye(len(rhs)), rhs)


def explained_variance(
    s_o: np.ndarray,
    s_a: np.ndarray,
    s_c: np.ndarray,
    counts: np.ndarray,
) -> float:
    """``V(b) = S_o^T (S_a + Diag(S_c/b))^{-1} S_o`` over the support of ``b``.

    Parameters
    ----------
    s_o, s_a, s_c:
        The statistics trio over an attribute list (vectors/matrix).
        Already-validated float arrays (the allocator hot path) are
        used as-is; anything else is converted once.
    counts:
        Question counts ``b(a)`` aligned with the attribute list;
        attributes with 0 questions are excluded from the estimator.
    """
    counts = np.asarray(counts, dtype=float)
    support = counts > 0
    if not support.any():
        return 0.0
    so = np.asarray(s_o, dtype=float)
    sa = np.asarray(s_a, dtype=float)
    sc = np.asarray(s_c, dtype=float)
    if support.all():
        # Full support: no fancy-indexed copies of the trio are needed.
        noise = sc / counts
    else:
        so = so[support]
        sa = sa[np.ix_(support, support)]
        noise = sc[support] / counts[support]
    solution = _solve_regularized(sa + np.diag(noise), so)
    value = float(so @ solution)
    # V is a quadratic form of a PSD-plus-noise matrix; tiny negative
    # values are numerical artefacts of near-singular S_a estimates.
    return max(value, 0.0)


def estimation_error(
    target_variance: float,
    s_o: np.ndarray,
    s_a: np.ndarray,
    s_c: np.ndarray,
    counts: np.ndarray,
) -> float:
    """Predicted MSE of the best linear estimator under budget ``counts``.

    Clipped at 0: the linear model cannot do better than zero error,
    and sampling noise in the statistics can push the difference
    slightly negative.
    """
    return max(target_variance - explained_variance(s_o, s_a, s_c, counts), 0.0)


class IncrementalObjective:
    """Incrementally evaluated explained variance for one target.

    Maintains, across greedy budget grants, the support attribute order,
    the inverse ``inv`` of the support matrix ``M = S_a + Diag(S_c/b)``
    and the raw quadratic form ``V = S_o^T inv S_o``:

    * Granting one more question to an in-support attribute ``i``
      perturbs ``M`` by ``delta * e_i e_i^T`` with
      ``delta = S_c[i]/(b+1) - S_c[i]/b``, so by Sherman–Morrison

      ``V' = V - delta * z_i^2 / (1 + delta * inv_ii)``

      with ``z = inv @ S_o`` cached per commit — an O(1) evaluation.
    * Granting the first question to attribute ``i`` borders ``M`` with
      row/column ``m = S_a[support, i]`` and corner
      ``d = S_a[i, i] + S_c[i]``; with ``x = inv @ m`` and Schur
      complement ``s = d - m @ x``,

      ``V' = V + (x @ S_o[support] - S_o[i])^2 / s``.

    When a denominator/Schur complement is numerically singular the
    evaluation defers to :func:`explained_variance` (hitting the same
    ridge fallback as the reference path), and after a singular commit
    the evaluator stays in exact mode until a rebuild succeeds.
    """

    def __init__(
        self,
        s_o: np.ndarray,
        s_a: np.ndarray,
        s_c: np.ndarray,
        weight: float = 1.0,
    ) -> None:
        self.s_o = np.ascontiguousarray(s_o, dtype=float)
        self.s_a = np.ascontiguousarray(s_a, dtype=float)
        self.s_c = np.ascontiguousarray(s_c, dtype=float)
        self.weight = float(weight)
        n = len(self.s_o)
        if self.s_a.shape != (n, n) or len(self.s_c) != n:
            raise ValueError("statistics trio dimensions disagree")
        self.counts = np.zeros(n, dtype=int)
        #: Support attribute indices in insertion order (the quadratic
        #: form is permutation-invariant, so insertion order is as good
        #: as ascending order and keeps bordering an append).
        self._order: list[int] = []
        self._pos: dict[int, int] = {}
        self._inv = np.zeros((0, 0))
        self._so_sup = np.zeros(0)
        self._z = np.zeros(0)
        self._raw = 0.0
        self._exact = False
        self._commits_since_rebuild = 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Weighted explained variance at the current counts."""
        if self._exact:
            return self.weight * explained_variance(
                self.s_o, self.s_a, self.s_c, self.counts
            )
        return self.weight * max(self._raw, 0.0)

    def _exact_value_with(self, index: int) -> float:
        trial = self.counts.copy()
        trial[index] += 1
        return self.weight * explained_variance(
            self.s_o, self.s_a, self.s_c, trial
        )

    def _diagonal_step(self, index: int) -> tuple[float, float] | None:
        """``(delta, denominator)`` of the in-support update, or None
        when the denominator is numerically singular."""
        b = self.counts[index]
        delta = self.s_c[index] / (b + 1) - self.s_c[index] / b
        pos = self._pos[index]
        denominator = 1.0 + delta * self._inv[pos, pos]
        if abs(denominator) < _SINGULAR_TOL:
            return None
        return delta, denominator

    def _border_step(
        self, index: int
    ) -> tuple[np.ndarray, np.ndarray, float, float] | None:
        """``(m, x, schur, beta)`` of the support-extending update, or
        None when the Schur complement is numerically non-positive."""
        order = self._order
        m = self.s_a[order, index]
        d = self.s_a[index, index] + self.s_c[index]
        x = self._inv @ m
        schur = d - float(m @ x)
        if schur < _SINGULAR_TOL * max(abs(d), 1.0):
            return None
        beta = float(x @ self._so_sup) - self.s_o[index]
        return m, x, schur, beta

    def value_with(self, index: int) -> float:
        """Weighted explained variance at ``counts + e_index``."""
        if self._exact:
            return self._exact_value_with(index)
        if self.counts[index] > 0:
            step = self._diagonal_step(index)
            if step is None:
                return self._exact_value_with(index)
            delta, denominator = step
            pos = self._pos[index]
            raw = self._raw - delta * self._z[pos] ** 2 / denominator
        else:
            step = self._border_step(index)
            if step is None:
                return self._exact_value_with(index)
            _, _, schur, beta = step
            raw = self._raw + beta * beta / schur
        return self.weight * max(raw, 0.0)

    def gain(self, index: int) -> float:
        """Marginal weighted gain of one more question on ``index``."""
        return self.value_with(index) - self.value

    def values_with_all(self) -> np.ndarray:
        """Weighted explained variance at ``counts + e_i`` for every ``i``.

        Vectorized over candidates: in-support entries cost O(1) each
        (Sherman–Morrison on the cached ``z``), out-of-support entries
        share one ``inv @ S_a[support, out]`` GEMM.  Entries whose
        update is ill-conditioned are recomputed by the reference
        formula individually.
        """
        n = len(self.counts)
        if self._exact:
            return np.array([self._exact_value_with(i) for i in range(n)])
        raw = np.empty(n)
        bad = np.zeros(n, dtype=bool)
        order = self._order
        with np.errstate(divide="ignore", invalid="ignore"):
            if order:
                idx = np.asarray(order)
                b = self.counts[idx].astype(float)
                delta = self.s_c[idx] / (b + 1.0) - self.s_c[idx] / b
                denominator = 1.0 + delta * np.diag(self._inv)
                raw[idx] = self._raw - delta * self._z**2 / denominator
                bad[idx] = np.abs(denominator) < _SINGULAR_TOL
            out = np.where(self.counts == 0)[0]
            if out.size:
                m = self.s_a[np.ix_(order, out)]
                x = self._inv @ m
                d = self.s_a[out, out] + self.s_c[out]
                schur = d - np.einsum("ij,ij->j", m, x)
                beta = x.T @ self._so_sup - self.s_o[out]
                raw[out] = self._raw + beta * beta / schur
                bad[out] = schur < _SINGULAR_TOL * np.maximum(np.abs(d), 1.0)
        values = self.weight * np.maximum(raw, 0.0)
        for i in np.where(bad | ~np.isfinite(values))[0]:
            values[i] = self._exact_value_with(int(i))
        return values

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------

    def copy(self) -> "IncrementalObjective":
        """An independent evaluator in exactly this one's state.

        Every field travels, the commit count since the last rebuild
        included, so the copy rebuilds on the same grant as the
        original would and the two stay byte-identical under the same
        commits.  The statistics trio is shared: nothing writes to it.
        """
        clone = copy.copy(self)
        clone.counts = self.counts.copy()
        clone._order = list(self._order)
        clone._pos = dict(self._pos)
        clone._inv = self._inv.copy()
        clone._so_sup = self._so_sup.copy()
        clone._z = self._z.copy()
        return clone

    def commit(self, index: int) -> None:
        """Grant one question to ``index`` and update the inverse."""
        if self._exact:
            self.counts[index] += 1
            self._rebuild()
            return
        if self.counts[index] > 0:
            step = self._diagonal_step(index)
            self.counts[index] += 1
            if step is None:
                self._rebuild()
                return
            delta, denominator = step
            pos = self._pos[index]
            column = self._inv[:, pos].copy()
            self._raw -= delta * self._z[pos] ** 2 / denominator
            self._inv -= (delta / denominator) * np.outer(column, column)
        else:
            step = self._border_step(index)
            self.counts[index] += 1
            if step is None:
                self._rebuild()
                return
            _, x, schur, beta = step
            k = len(self._order)
            grown = np.empty((k + 1, k + 1))
            grown[:k, :k] = self._inv + np.outer(x, x) / schur
            grown[:k, k] = -x / schur
            grown[k, :k] = -x / schur
            grown[k, k] = 1.0 / schur
            self._inv = grown
            self._pos[index] = k
            self._order.append(index)
            self._so_sup = np.append(self._so_sup, self.s_o[index])
            self._raw += beta * beta / schur
        self._z = self._inv @ self._so_sup
        self._commits_since_rebuild += 1
        if self._commits_since_rebuild >= _REFRESH_EVERY:
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the support inverse from scratch (drift clamp)."""
        self._commits_since_rebuild = 0
        order = [i for i in self._order if self.counts[i] > 0]
        for i in range(len(self.counts)):
            if self.counts[i] > 0 and i not in self._pos:
                order.append(i)
        self._order = order
        self._pos = {attr: pos for pos, attr in enumerate(order)}
        self._so_sup = self.s_o[order]
        if not order:
            self._inv = np.zeros((0, 0))
            self._z = np.zeros(0)
            self._raw = 0.0
            self._exact = False
            return
        matrix = self.s_a[np.ix_(order, order)] + np.diag(
            self.s_c[order] / self.counts[order]
        )
        try:
            self._inv = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            # Singular support: stay on the reference formula (and its
            # ridge) until a future grant makes the matrix invertible.
            self._exact = True
            self._inv = np.zeros((0, 0))
            self._z = np.zeros(0)
            return
        self._exact = False
        self._z = self._inv @ self._so_sup
        self._raw = float(self._so_sup @ self._z)
