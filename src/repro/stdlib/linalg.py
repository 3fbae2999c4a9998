"""Classical linear algebra in for-MATLANG (Section 4 and Appendix C).

This module contains the expression-level implementations of

* LU decomposition by Gaussian elimination (Proposition 4.1),
* LU decomposition with row pivoting, PLU (Proposition 4.2),
* triangular matrix inversion (Lemma C.1),
* Csanky's algorithm for the characteristic polynomial, determinant and
  matrix inverse (Proposition 4.3).

All constructions only use the operators of for-MATLANG together with the
pointwise functions ``f_/`` (division, with ``x/0 := 0``) and — for pivoting
only — ``f_>0``, exactly as stated in the paper.

Implementation notes (documented deviations from the appendix text):

* The appendix recovers ``L`` from the accumulated Gauss transform
  ``E = T_{n-1} ... T_1`` by flipping the signs below the diagonal.  That
  identity only holds when the cross terms between reduction steps vanish,
  which they do for ``L = E^{-1}`` written as a product in increasing order
  but not for ``E`` itself; :func:`lu_lower` therefore computes ``L`` as the
  triangular inverse of ``E`` (Lemma C.1), which stays inside
  for-MATLANG[f_/].
* The appendix expression ``neq`` (first non-zero entry of a vector) omits
  the ``+ X`` term that keeps an already-found pivot; :func:`_first_nonzero`
  restores it.
* Csanky's algorithm is implemented through Newton's identities in the form
  ``k c_k + sum_{i<k} c_i p_{k-i} = -p_k`` with ``p_k = tr(A^k)``; this is the
  "slightly different, but equivalent, system of equations" the appendix
  alludes to, spelled out so the reproduction is numerically checkable.
"""

from __future__ import annotations

from typing import Union

from repro.matlang.ast import Expression, Var
from repro.matlang.builder import apply, diag, forloop, lit, ones, prod, ssum, var
from repro.stdlib.basic import DEFAULT_SYMBOL, identity_like
from repro.stdlib.order import e_max, is_max, prev_matrix, get_next_matrix, succ, succ_strict

ExpressionLike = Union[Expression, str]


def _as_expr(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    return Var(value)


def _one_minus(expression: Expression) -> Expression:
    """``1 - e`` for a 1x1 expression ``e``."""
    return lit(1) + lit(-1) * expression


# ----------------------------------------------------------------------
# Matrix powers and power sums
# ----------------------------------------------------------------------
def matrix_power_fixed(matrix: ExpressionLike, exponent: int) -> Expression:
    """``A^k`` for a fixed non-negative integer ``k`` (MATLANG core)."""
    expr = _as_expr(matrix)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if exponent == 0:
        return identity_like(expr)
    result = expr
    for _ in range(exponent - 1):
        result = result @ expr
    return result


def matrix_power(
    matrix: ExpressionLike,
    index_vector: Expression,
    symbol: str = DEFAULT_SYMBOL,
    iterator: str = "_pw",
) -> Expression:
    """``e_pow(V, v)``: the power ``A^i`` where ``index_vector`` is ``b_i``.

    ``Pi w. succ(w, v) x V + (1 - succ(w, v)) x I`` multiplies one copy of
    ``V`` for every ``w <= v`` (Appendix C.3).
    """
    expr = _as_expr(matrix)
    w = var(iterator)
    condition = succ(w, index_vector, symbol)
    body = condition * expr + _one_minus(condition) * identity_like(expr)
    return prod(iterator, body)


def power_sum(matrix: ExpressionLike, iterator: str = "_ps") -> Expression:
    """``I + A + A^2 + ... + A^n`` (the series used for triangular inversion).

    Built with the order-free loop ``for v, X. X . A + A`` which accumulates
    ``A + A^2 + ... + A^n``, plus the identity.
    """
    expr = _as_expr(matrix)
    accumulator = f"{iterator}X"
    loop = forloop(iterator, accumulator, var(accumulator) @ expr + expr)
    return identity_like(expr) + loop


def power_trace_vector(
    matrix: ExpressionLike,
    symbol: str = DEFAULT_SYMBOL,
) -> Expression:
    """The column vector ``(tr(A^1), tr(A^2), ..., tr(A^n))^T`` (sum over traces)."""
    expr = _as_expr(matrix)
    v = var("_ptv")
    w = var("_ptw")
    power = matrix_power(expr, v, symbol, iterator="_ptp")
    trace_of_power = ssum("_ptw", w.T @ power @ w)
    return ssum("_ptv", trace_of_power * v)


# ----------------------------------------------------------------------
# Triangular inversion (Lemma C.1)
# ----------------------------------------------------------------------
def _diagonal_of(matrix: Expression, iterator: str = "_dgv") -> Expression:
    """``e_getDiag``: the diagonal part of a square matrix as a matrix."""
    v = var(iterator)
    return ssum(iterator, (v.T @ matrix @ v) * (v @ v.T))


def _diagonal_inverse(matrix: Expression, iterator: str = "_div") -> Expression:
    """``e_diagInverse``: the diagonal matrix of reciprocal diagonal entries."""
    v = var(iterator)
    reciprocal = apply("div", lit(1), v.T @ matrix @ v)
    return ssum(iterator, reciprocal * (v @ v.T))


def upper_triangular_inverse(matrix: ExpressionLike) -> Expression:
    """Lemma C.1: the inverse of an invertible upper triangular matrix.

    Writes ``A = D (I + D^{-1} T)`` with ``D`` the diagonal and ``T`` the
    strictly triangular part; ``D^{-1} T`` is nilpotent so the Neumann series
    ``sum_i (-D^{-1} T)^i`` terminates and equals ``(I + D^{-1} T)^{-1}``.
    """
    expr = _as_expr(matrix)
    diagonal_inverse = _diagonal_inverse(expr)
    strictly = expr + lit(-1) * _diagonal_of(expr)
    series = power_sum(lit(-1) * (diagonal_inverse @ strictly), iterator="_uti")
    return series @ diagonal_inverse


def lower_triangular_inverse(matrix: ExpressionLike) -> Expression:
    """Lemma C.1: the inverse of an invertible lower triangular matrix."""
    expr = _as_expr(matrix)
    return upper_triangular_inverse(expr.T).T


def solve_lower_triangular(matrix: ExpressionLike, rhs: ExpressionLike) -> Expression:
    """``L^{-1} . b`` — forward substitution as an expression."""
    return lower_triangular_inverse(matrix) @ _as_expr(rhs)


# ----------------------------------------------------------------------
# LU decomposition (Proposition 4.1)
# ----------------------------------------------------------------------
def _column_below(matrix: Expression, pivot: Expression, symbol: str, iterator: str = "_clv") -> Expression:
    """``col(V, y)``: column ``y`` of ``V`` with entries at positions <= y zeroed.

    Both scalars are linear in the iterator, so the plan compiler's one-hot
    substitution compiles the loop to the Hadamard product
    ``(S_<^T . y) o (V . y)``: no loop.
    """
    v = var(iterator)
    accumulator = f"{iterator}X"
    entry = succ_strict(pivot, v, symbol) * ((v.T @ matrix @ pivot) * v)
    return forloop(iterator, accumulator, entry + var(accumulator))


def _column_from(matrix: Expression, pivot: Expression, symbol: str, iterator: str = "_cle") -> Expression:
    """``coleq(V, y)``: column ``y`` of ``V`` with entries at positions < y zeroed.

    Same as :func:`_column_below` but using ``succ`` instead of ``succ^+`` so
    the pivot entry itself is kept (needed for pivot search).
    """
    v = var(iterator)
    accumulator = f"{iterator}X"
    entry = succ(pivot, v, symbol) * ((v.T @ matrix @ pivot) * v)
    return forloop(iterator, accumulator, entry + var(accumulator))


def _reduce_step(matrix: Expression, pivot: Expression, symbol: str) -> Expression:
    """``reduce(V, y) = I + f_/(col(V, y), -(y^T V y) . 1(y)) . y^T``.

    The Gauss transform ``T_y`` that zeroes column ``y`` below the diagonal.
    """
    column = _column_below(matrix, pivot, symbol)
    pivot_value = pivot.T @ matrix @ pivot
    denominator = (lit(-1) @ pivot_value) * ones(pivot)
    multipliers = apply("div", column, denominator)
    return identity_like(matrix) + multipliers @ pivot.T


def lu_lower_inverse(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """``E = T_n ... T_1`` such that ``E . A = U`` (the accumulated transform).

    ``for y, X = I. reduce(X . V, y) . X`` — Proposition 4.1.
    """
    expr = _as_expr(matrix)
    y = var("_luy")
    x = var("_luX")
    body = _reduce_step(x @ expr, y, symbol) @ x
    return forloop("_luy", "_luX", body, init=identity_like(expr))


def lu_upper(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """``e_U(V) = (for y, X = I. reduce(X . V, y) . X) . V`` — the upper factor.

    The column extraction inside ``reduce`` fuses (see
    :func:`_column_below`), so the compiled plan nests loops one deep: the
    outer ``for y`` plus the loops that build the order matrix ``S_<``,
    which run once, hoisted out of it.
    """
    expr = _as_expr(matrix)
    return lu_lower_inverse(expr, symbol) @ expr


def lu_lower(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """The unit lower triangular factor ``L`` with ``A = L . U``.

    ``L`` is the inverse of the accumulated transform ``E`` returned by
    :func:`lu_lower_inverse`; since ``E`` is unit lower triangular its inverse
    is computed with Lemma C.1 inside for-MATLANG[f_/].
    """
    return lower_triangular_inverse(lu_lower_inverse(matrix, symbol))


# ----------------------------------------------------------------------
# PLU decomposition (Proposition 4.2)
# ----------------------------------------------------------------------
def _first_nonzero(
    vector: Expression,
    fallback: Expression,
    symbol: str = DEFAULT_SYMBOL,
    iterator: str = "_nzv",
) -> Expression:
    """``neq(a, u)``: the canonical vector of the first non-zero entry of ``a``.

    Returns ``fallback`` when every entry of ``a`` is zero.  Compared to the
    appendix the accumulator ``X`` is added back into the update so that an
    already found position is preserved across iterations.
    """
    v = var(iterator)
    accumulator = f"{iterator}X"
    x = var(accumulator)
    not_found = _one_minus(ones(v).T @ x)
    hit = apply("gt0", apply("square", v.T @ vector))
    take_current = (not_found @ hit) * v
    take_fallback = (is_max(v, symbol) @ not_found @ _one_minus(hit)) * fallback
    return forloop(iterator, accumulator, x + take_current + take_fallback)


def _pivot_permutation(matrix: Expression, pivot: Expression, symbol: str) -> Expression:
    """``e_Pu(A, u) = I - w . w^T`` with ``w = u - neq(coleq(A, u), u)``.

    The permutation that swaps row ``u`` with the first row at or below ``u``
    whose entry in column ``u`` is non-zero (the identity when no swap is
    needed or possible).
    """
    column = _column_from(matrix, pivot, symbol)
    target = _first_nonzero(column, pivot, symbol)
    difference = pivot + lit(-1) * target
    return identity_like(matrix) + lit(-1) * (difference @ difference.T)


def _reduce_step_guarded(matrix: Expression, pivot: Expression, symbol: str) -> Expression:
    """The pivoting-aware reduction step of Appendix C.2.

    When the pivot entry is zero the step degenerates to the identity (the
    division falls back to dividing by ``1(y)`` so nothing blows up).
    """
    column = _column_below(matrix, pivot, symbol)
    pivot_value = pivot.T @ matrix @ pivot
    pivot_nonzero = apply("gt0", apply("square", pivot_value))
    denominator = (
        (lit(-1) @ pivot_value) * ones(pivot)
        + _one_minus(pivot_nonzero) * ones(pivot)
    )
    multipliers = apply("div", column, denominator)
    return identity_like(matrix) + pivot_nonzero * (multipliers @ pivot.T)


def plu_transform(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """``e_{L^{-1} P}(V)``: the transform ``E = L^{-1} . P`` with ``E . A = U``.

    ``for v, X = I. reduce(P_v(X V, v) . X . V, v) . P_v(X V, v) . X`` where
    ``P_v`` performs the row interchange needed at step ``v``.
    """
    expr = _as_expr(matrix)
    v = var("_plv")
    x = var("_plX")
    current = x @ expr
    permutation = _pivot_permutation(current, v, symbol)
    body = _reduce_step_guarded(permutation @ current, v, symbol) @ permutation @ x
    return forloop("_plv", "_plX", body, init=identity_like(expr))


def plu_upper(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """``e_U(V) = e_{L^{-1} P}(V) . V``: the upper triangular factor of PLU."""
    expr = _as_expr(matrix)
    return plu_transform(expr, symbol) @ expr


# ----------------------------------------------------------------------
# Csanky's algorithm (Proposition 4.3)
# ----------------------------------------------------------------------
def _index_vector(symbol: str = DEFAULT_SYMBOL) -> Expression:
    """The column vector ``(1, 2, ..., n)^T``: position i holds its index."""
    v = var("_ixv")
    w = var("_ixw")
    count_below = ssum("_ixw", succ(w, v, symbol))
    return ssum("_ixv", count_below * v)


def _shift_down(vector: Expression, offset_vector: Expression, symbol: str) -> Expression:
    """``e_shift``: shift ``vector`` down by ``index(offset_vector)`` positions."""
    w = var("_shw")
    moved = get_next_matrix(offset_vector, symbol) @ w
    return ssum("_shw", (w.T @ vector) * moved)


def _newton_matrix(matrix: Expression, symbol: str) -> Expression:
    """The lower triangular Newton system matrix ``S``.

    ``S[k, k] = k`` and ``S[k, j] = p_{k-j}`` for ``j < k`` where
    ``p_i = tr(A^i)``; the coefficient vector ``c`` of the characteristic
    polynomial satisfies ``S . c = -p``.
    """
    traces = power_trace_vector(matrix, symbol)
    v = var("_nwv")
    shifted_columns = ssum("_nwv", _shift_down(traces, v, symbol) @ v.T)
    return diag(_index_vector(symbol)) + shifted_columns


def characteristic_coefficients(
    matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL
) -> Expression:
    """The vector ``(c_1, ..., c_n)^T`` of characteristic polynomial coefficients.

    Coefficients of ``det(xI - A) = x^n + c_1 x^{n-1} + ... + c_n``, obtained
    by solving the Newton identities with the triangular inversion of
    Lemma C.1; lives in for-MATLANG[f_/].
    """
    expr = _as_expr(matrix)
    newton = _newton_matrix(expr, symbol)
    traces = power_trace_vector(expr, symbol)
    return lit(-1) * (lower_triangular_inverse(newton) @ traces)


def _minus_one_to_the_dimension(symbol: str = DEFAULT_SYMBOL) -> Expression:
    """``(-1)^n`` as a 1x1 expression: ``Pi w. (-1) x (w^T . w)``."""
    w = var("_sgw")
    return prod("_sgw", lit(-1) * (w.T @ w))


def csanky_determinant(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """Proposition 4.3: ``det(A) = (-1)^n c_n`` via Csanky's algorithm."""
    expr = _as_expr(matrix)
    coefficients = characteristic_coefficients(expr, symbol)
    last_coefficient = e_max(symbol).T @ coefficients
    return _minus_one_to_the_dimension(symbol) @ last_coefficient


def _inverse_power(matrix: Expression, index_vector: Expression, symbol: str) -> Expression:
    """``e_invPow(V, b_i) = A^{n-1-i}`` (Appendix C.3)."""
    w = var("_ivw")
    condition = succ(w, index_vector, symbol)
    last = is_max(w, symbol)
    inner = _one_minus(condition) * matrix + condition * identity_like(matrix)
    body = _one_minus(last) * inner + last * identity_like(matrix)
    return prod("_ivw", body)


def csanky_inverse(matrix: ExpressionLike = "A", symbol: str = DEFAULT_SYMBOL) -> Expression:
    """Proposition 4.3: the matrix inverse via Csanky's algorithm.

    ``A^{-1} = -(1 / c_n) (A^{n-1} + sum_{i=1}^{n-1} c_i A^{n-1-i})`` by
    Cayley-Hamilton; the sum over ``i`` is a Sigma loop that skips ``i = n``.
    """
    expr = _as_expr(matrix)
    coefficients = characteristic_coefficients(expr, symbol)
    last_coefficient = e_max(symbol).T @ coefficients

    leading_power = matrix_power(expr, prev_matrix(symbol) @ e_max(symbol), symbol, iterator="_cip")

    v = var("_civ")
    coefficient_i = coefficients.T @ v
    term = (_one_minus(is_max(v, symbol)) @ coefficient_i) * _inverse_power(expr, v, symbol)
    summed = ssum("_civ", term)

    scale = lit(-1) @ apply("div", lit(1), last_coefficient)
    return scale * (leading_power + summed)
