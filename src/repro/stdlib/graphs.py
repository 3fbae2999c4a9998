"""Graph queries expressed in (fragments of) for-MATLANG.

The paper uses three graph problems as running examples of expressive power:

* the 4-clique query (Example 3.3) — expressible in sum-MATLANG but not in
  MATLANG, which witnesses the strict inclusion of Corollary 6.2;
* the transitive closure via the Floyd-Warshall algorithm (Example 3.5) —
  expressible in for-MATLANG but in no fragment equivalent to RA+_K;
* the transitive closure via ``f_>0((I + A)^n)`` (Section 6.3) — expressible
  in prod-MATLANG extended with ``f_>0``.

All expressions assume the graph is given as the adjacency matrix assigned to
a square matrix variable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Union

from repro.matlang.ast import Expression, Var
from repro.matlang.builder import apply, forloop, lit, prod, ssum, var
from repro.stdlib.basic import identity_like

ExpressionLike = Union[Expression, str]


def _as_expr(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    return Var(value)


# ----------------------------------------------------------------------
# Transitive closure
# ----------------------------------------------------------------------
def transitive_closure_floyd_warshall(
    adjacency: ExpressionLike = "A",
) -> Expression:
    """Example 3.5: the Floyd-Warshall expression ``e_FW``.

    ``for v_k, X_1 = A. X_1 + Sigma v_i. Sigma v_j.
    (v_i^T . X_1 . v_k . v_k^T . X_1 . v_j) x (v_i . v_j^T)``

    Over the reals the result counts routes, so an entry ``(i, j)`` is
    non-zero exactly when ``j`` is reachable from ``i`` by a non-empty path;
    over the boolean semiring the result is exactly the irreflexive
    transitive closure.

    The plan compiler's one-hot substitution fuses both sums: the body of
    the ``for`` loop compiles to ``X_1 + (X_1 . v_k) . (v_k^T . X_1)``, two
    matrix-vector products and one outer product per step instead of
    ``n^2`` interpreted iterations.
    """
    matrix = _as_expr(adjacency)
    vk, vi, vj = var("_fwk"), var("_fwi"), var("_fwj")
    x1 = var("_fwX")
    weight = vi.T @ x1 @ vk @ vk.T @ x1 @ vj
    inner = ssum("_fwi", ssum("_fwj", weight * (vi @ vj.T)))
    return forloop("_fwk", "_fwX", x1 + inner, init=matrix)


def transitive_closure_indicator(adjacency: ExpressionLike = "A") -> Expression:
    """The 0/1 transitive closure: ``f_>0`` applied to the Floyd-Warshall result."""
    return apply("gt0", transitive_closure_floyd_warshall(adjacency))


def transitive_closure_product(adjacency: ExpressionLike = "A", iterator: str = "_tcv") -> Expression:
    """Section 6.3: ``e_TC(V) = f_>0(Pi v. (I + V))``.

    The matrix-product quantifier computes ``(I + A)^n`` whose non-zero
    entries coincide with the reflexive-transitive closure; ``f_>0`` turns the
    path counts into a 0/1 matrix.  Lives in prod-MATLANG[f_>0].

    The quantifier body is loop-invariant, so the plan compiler fuses the
    whole loop into a ``power`` op computed by repeated squaring —
    ``O(log n)`` matrix products instead of ``n`` — and over the boolean
    semiring the sparse CSR execution backend keeps the iterated product
    sparse end to end.
    """
    matrix = _as_expr(adjacency)
    body = identity_like(matrix) + matrix
    return apply("gt0", prod(iterator, body))


def shortest_path_matrix(adjacency: ExpressionLike = "A", iterator: str = "_spv") -> Expression:
    """All-pairs shortest-path costs: ``Pi v. (I + A)`` over min-plus.

    Over the min-plus semiring ``+`` is entrywise ``min`` and the matrix
    product is the tropical one, so ``I + A`` is the weight matrix with free
    self-loops and its ``n``-th tropical power holds the cheapest cost of a
    walk of length at most ``n`` — the shortest-path distance (``inf`` where
    no path exists).  The same expression evaluated over the booleans is
    reflexive-transitive reachability: the semiring parameterises the
    meaning, exactly the Section 6 story.  Lives in prod-MATLANG.
    Like :func:`transitive_closure_product`, the invariant body fuses into
    a repeated-squaring ``power`` plan op.
    """
    matrix = _as_expr(adjacency)
    return prod(iterator, identity_like(matrix) + matrix)


def reachability_from(
    source: Expression,
    adjacency: ExpressionLike = "A",
    iterator: str = "_rv",
) -> Expression:
    """The 0/1 column vector of vertices reachable from ``source``.

    ``source`` should evaluate to a canonical vector; the expression is
    ``f_>0(((I + A)^n)^T . source)`` and lives in prod-MATLANG[f_>0].
    """
    matrix = _as_expr(adjacency)
    closure = prod(iterator, identity_like(matrix) + matrix)
    return apply("gt0", closure.T @ source)


# ----------------------------------------------------------------------
# Cliques
# ----------------------------------------------------------------------
def _all_distinct(vertices) -> Expression:
    """The paper's ``g``: the product of ``(1 - u^T . v)`` over all pairs.

    Evaluates to 1 when all the canonical vectors are pairwise different and
    to 0 otherwise.
    """
    factors = None
    for left, right in combinations(vertices, 2):
        factor = lit(1) + lit(-1) * (left.T @ right)
        factors = factor if factors is None else factors @ factor
    return factors if factors is not None else lit(1)


def _all_adjacent(matrix: Expression, vertices) -> Expression:
    """The product of ``u^T . A . v`` over all pairs of chosen vertices."""
    factors = None
    for left, right in combinations(vertices, 2):
        factor = left.T @ matrix @ right
        factors = factor if factors is None else factors @ factor
    return factors if factors is not None else lit(1)


def k_clique_count(adjacency: ExpressionLike, k: int, prefix: str = "_cq") -> Expression:
    """The number of ordered k-cliques, as a nested sum-MATLANG expression.

    Generalises Example 3.3: for an undirected graph without self-loops the
    expression evaluates to ``k!`` times the number of k-cliques, so it is
    non-zero exactly when a k-clique exists.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    matrix = _as_expr(adjacency)
    names = [f"{prefix}{index}" for index in range(k)]
    vertices = [var(name) for name in names]
    body = _all_adjacent(matrix, vertices) @ _all_distinct(vertices)
    expression = body
    for name in reversed(names):
        expression = ssum(name, expression)
    return expression


def four_clique_count(adjacency: ExpressionLike = "A") -> Expression:
    """Example 3.3: the 4-clique expression (24 x the number of 4-cliques)."""
    return k_clique_count(adjacency, 4)


def has_four_clique(adjacency: ExpressionLike = "A") -> Expression:
    """``f_>0`` of the 4-clique count: 1 iff the graph contains a 4-clique."""
    return apply("gt0", four_clique_count(adjacency))


def triangle_count(adjacency: ExpressionLike = "A") -> Expression:
    """The number of ordered triangles (6 x the number of triangles)."""
    return k_clique_count(adjacency, 3)
