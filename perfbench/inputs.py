"""Seeded inputs for every workload, and the independent reference answers.

Everything a run feeds the program is drawn here from ``--seed``; the
program under test only ever receives the generated ``(expression,
instance)`` pairs.  References never call into ``repro`` beyond building
the expressions: served shapes are recomputed with plain numpy semiring
arithmetic (min-plus closures with scipy's Floyd-Warshall), paper
algorithms with scipy / numpy (and, for reachability,
the direct loop in ``repro.experiments.workloads``, which shares no code
with the MATLANG compiler or interpreter).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from repro.experiments.workloads import reachability_closure
from repro.matlang import ssum, var
from repro.matlang.instance import Instance
from repro.semiring import BOOLEAN, MIN_PLUS, REAL
from repro.stdlib.aggregates import trace
from repro.stdlib.graphs import (
    shortest_path_matrix,
    transitive_closure_floyd_warshall,
    transitive_closure_product,
)
from repro.stdlib.linalg import csanky_inverse, lu_upper

SEMIRINGS = {"real": REAL, "min_plus": MIN_PLUS, "boolean": BOOLEAN}
SIZES = (8, 12, 16, 24, 32)
SHAPES = ("row_totals", "quadratic", "shortest_paths", "closure", "trace_cube")

#: Hot-set size and Zipf exponent of ``serve_hot``.
HOT_SET = 64
ZIPF_EXPONENT = 1.0

#: Relative tolerance for float carriers.  Served plans may associate sums
#: and products differently from a straight numpy evaluation; on the
#: non-negative real inputs below that moves only the last few bits.
FLOAT_RTOL = 1e-9

#: Norm-wise relative tolerances of the real-valued paper algorithms
#: (``None``: the answer must be exact).  Gaussian elimination agrees with
#: LAPACK to ~1e-16.  Csanky's inverse goes through the characteristic
#: polynomial, whose coefficients grow like ``n!``-scaled power sums; at
#: n=32 it agrees with LAPACK to ~4e-7 and the error grows with n.
ALGORITHM_RTOL = {"lu": 1e-12, "inverse": 1e-5}


def serve_expressions() -> Dict[str, Any]:
    """The five light served shapes, built once per process."""
    A, v = var("A"), var("_v")
    return {
        "row_totals": ssum("_v", A @ v),
        "quadratic": ssum("_v", v.T @ A @ v) * (A @ A),
        "shortest_paths": shortest_path_matrix("A"),
        "closure": transitive_closure_product("A"),
        "trace_cube": trace(A @ A @ A),
    }


def random_matrix(rng: np.random.Generator, semiring: str, n: int) -> np.ndarray:
    """One input matrix: values on which no served shape can fail.

    Real entries are non-negative, so no cancellation can magnify the
    plan-order rounding differences; min-plus weights are small integers
    (sums stay exact) with 30% of the entries infinite.
    """
    if semiring == "real":
        return rng.random((n, n))
    if semiring == "min_plus":
        weights = rng.integers(1, 10, (n, n)).astype(float)
        weights[rng.random((n, n)) < 0.3] = np.inf
        return weights
    return (rng.random((n, n)) < 0.15).astype(float)


#: Serial numbers of the generated items: two requests carry the same
#: (expression, instance) pair exactly when they share a ``key``.
_SERIALS = itertools.count()


class ServedItem:
    """One (expression, instance) pair; its reference is computed on demand.

    Only requests actually sent are checked, so a generous request pool
    costs no reference computations for the part a run never reaches.  An
    item sent many times (``reused``) keeps its reference after the first
    check; any other item recomputes it, so a checked pool holds no
    references.
    """

    __slots__ = ("key", "shape", "expression", "semiring", "instance", "reused", "_expected")

    def __init__(self, shape: str, expression: Any, semiring: str, matrix: np.ndarray,
                 reused: bool = False) -> None:
        self.key = next(_SERIALS)
        self.shape = shape
        self.expression = expression
        self.semiring = semiring
        self.instance = Instance.from_matrices({"A": matrix}, semiring=SEMIRINGS[semiring])
        self.reused = reused
        self._expected: Optional[np.ndarray] = None

    def check(self, result: Any) -> bool:
        expected = self._expected
        if expected is None:
            expected = served_reference(self.shape, self.semiring, self.instance.matrix("A"))
            if self.reused:
                self._expected = expected
        return matches(result, expected)


def _item(rng: np.random.Generator, expressions: Dict[str, Any], shape: str,
          semiring: str, n: int, reused: bool = False) -> ServedItem:
    return ServedItem(shape, expressions[shape], semiring, random_matrix(rng, semiring, n), reused)


def draw_items(rng: np.random.Generator, expressions: Dict[str, Any],
               count: int) -> List[ServedItem]:
    """``count`` distinct items, shape / semiring / size drawn uniformly."""
    shapes = rng.integers(0, len(SHAPES), count)
    semirings = rng.integers(0, len(SEMIRINGS), count)
    sizes = rng.integers(0, len(SIZES), count)
    names = list(SEMIRINGS)
    return [
        _item(rng, expressions, SHAPES[shape], names[semiring], SIZES[size])
        for shape, semiring, size in zip(shapes, semirings, sizes)
    ]


def warm_items(rng: np.random.Generator, expressions: Dict[str, Any]) -> List[ServedItem]:
    """One item per (shape, semiring, size): compiles every served plan."""
    return [
        _item(rng, expressions, shape, semiring, n, reused=True)
        for shape in SHAPES
        for semiring in SEMIRINGS
        for n in SIZES
    ]


def hot_items(rng: np.random.Generator, expressions: Dict[str, Any]) -> List[ServedItem]:
    """The ``HOT_SET`` pairs of ``serve_hot``, most popular first.

    Which (shape, semiring, size) holds which popularity rank is fixed, not
    seeded: with Zipf weights the top few pairs carry most of the traffic,
    so a seeded choice would change the workload's cost mix from run to run
    (it moved throughput by 2x between seeds).  The seed draws the values.
    """
    combos = [(shape, semiring, n) for shape in SHAPES for semiring in SEMIRINGS for n in SIZES]
    order = np.random.default_rng(0).permutation(len(combos))[:HOT_SET]
    return [_item(rng, expressions, *combos[index], reused=True) for index in order]


def zipf_ranks(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws over ``range(HOT_SET)`` with ``P(k) ~ 1/(k+1)^s``."""
    weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_EXPONENT
    return rng.choice(HOT_SET, size=count, p=weights / weights.sum())


# ----------------------------------------------------------------------
# numpy semiring arithmetic for the served references
# ----------------------------------------------------------------------
def _matmul(semiring: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if semiring == "real":
        return left @ right
    if semiring == "min_plus":
        return np.min(left[:, :, None] + right[None, :, :], axis=1)
    # A 0/1 product's entries are at most n, so float BLAS counts them exactly.
    return (left.astype(float) @ right.astype(float)) > 0


def _plus(semiring: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if semiring == "real":
        return left + right
    if semiring == "min_plus":
        return np.minimum(left, right)
    return left | right


def _identity(semiring: str, n: int) -> np.ndarray:
    if semiring == "real":
        return np.eye(n)
    if semiring == "min_plus":
        return np.where(np.eye(n, dtype=bool), 0.0, np.inf)
    return np.eye(n, dtype=bool)


def _trace(semiring: str, matrix: np.ndarray) -> np.ndarray:
    diagonal = np.diag(matrix)
    if semiring == "real":
        return np.array([[diagonal.sum()]])
    if semiring == "min_plus":
        return np.array([[diagonal.min()]])
    return np.array([[diagonal.any()]])


def _power(semiring: str, matrix: np.ndarray, exponent: int) -> np.ndarray:
    result = _identity(semiring, matrix.shape[0])
    base = matrix
    while exponent:
        if exponent & 1:
            result = _matmul(semiring, result, base)
        exponent >>= 1
        if exponent:
            base = _matmul(semiring, base, base)
    return result


def served_reference(shape: str, semiring: str, raw: np.ndarray) -> np.ndarray:
    """The served shape's value, computed without the MATLANG stack."""
    matrix = raw != 0 if semiring == "boolean" else raw
    n = matrix.shape[0]
    if shape == "row_totals":
        if semiring == "real":
            return matrix.sum(axis=1, keepdims=True)
        if semiring == "min_plus":
            return matrix.min(axis=1, keepdims=True)
        return matrix.any(axis=1, keepdims=True)
    if shape == "quadratic":
        scalar = _trace(semiring, matrix)[0, 0]
        square = _matmul(semiring, matrix, matrix)
        if semiring == "real":
            return scalar * square
        if semiring == "min_plus":
            return scalar + square
        return scalar & square
    if shape == "trace_cube":
        return _trace(semiring, _matmul(semiring, _matmul(semiring, matrix, matrix), matrix))
    if semiring == "min_plus":
        # Weights are positive, so the min-plus power (I + A)^n is the
        # all-pairs shortest-path matrix; scipy's Floyd-Warshall computes it
        # exactly, ~2x faster than repeated squaring in numpy.  A sparse
        # graph skips scipy's slow dense-input validation.
        edges = csr_matrix(np.where(np.isfinite(matrix), matrix, 0.0))
        closure = floyd_warshall(edges, directed=True)
    else:
        closure = _power(semiring, _plus(semiring, _identity(semiring, n), matrix), n)
    if shape == "shortest_paths":
        return closure
    if semiring == "real":
        return (closure > 0).astype(float)
    if semiring == "min_plus":
        return np.where(closure > 0, 0.0, np.inf)
    return closure


def matches(result: Any, expected: np.ndarray) -> bool:
    """Bitwise on boolean carriers, relative tolerance on float carriers."""
    result = np.asarray(result)
    if result.shape != expected.shape:
        return False
    if expected.dtype == bool or result.dtype == bool:
        return bool(np.array_equal(result.astype(bool), expected.astype(bool)))
    # Most float results are bitwise equal; the equality test is ~10x
    # cheaper than the tolerance test, and the check runs per request.
    return bool(np.array_equal(result, expected)
                or np.allclose(result, expected, rtol=FLOAT_RTOL, atol=0.0))


# ----------------------------------------------------------------------
# The paper's algorithms
# ----------------------------------------------------------------------
#: name -> (builder, semiring, n).  Sizes put each warm run at 0.13-0.9 s on
#: a 2-CPU x86 host, enough work that kernels and the for-loop interpreter
#: dominate and the per-call overhead of ``evaluate`` does not.
ALGORITHMS: Dict[str, Tuple[Any, str, int]] = {
    "shortest_paths": (shortest_path_matrix, "min_plus", 256),
    "closure": (transitive_closure_product, "boolean", 512),
    "floyd_warshall": (transitive_closure_floyd_warshall, "boolean", 32),
    "lu": (lu_upper, "real", 64),
    "inverse": (csanky_inverse, "real", 32),
}


@dataclass
class AlgorithmCase:
    name: str
    expression: Any
    semiring: str
    instance: Instance
    expected: np.ndarray
    rtol: Optional[float]

    def check(self, result: Any) -> bool:
        """Exact equality, or norm-wise agreement within ``rtol``."""
        result = np.asarray(result)
        if result.shape != self.expected.shape:
            return False
        if self.rtol is None:
            return bool(np.array_equal(result, self.expected))
        error = np.linalg.norm(result - self.expected) / np.linalg.norm(self.expected)
        return bool(error <= self.rtol)


def _algorithm_input(rng: np.random.Generator, name: str, n: int) -> np.ndarray:
    if name == "shortest_paths":
        # Integer weights: every path sum is exact, so the repeated-squaring
        # plan and Dijkstra must agree bitwise.
        weights = rng.integers(1, 10, (n, n)).astype(float)
        weights[rng.random((n, n)) < 0.3] = np.inf
        np.fill_diagonal(weights, np.inf)
        return weights
    if name in ("closure", "floyd_warshall"):
        # Average out-degree 2.  Over the reals Floyd-Warshall's route
        # counts overflow float64 at n=32, hence the boolean semiring.  The
        # graph is fixed up to a seeded relabelling of its vertices: how
        # far the closure fills (and so what the squarings cost) depends on
        # the graph's shape, which a fresh random graph per seed changed by
        # up to 25% between seeds.
        adjacency = (np.random.default_rng(n).random((n, n)) < 2.0 / n).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        order = rng.permutation(n)
        return adjacency[np.ix_(order, order)]
    matrix = rng.uniform(-1.0, 1.0, (n, n))
    if name == "lu":
        # Column diagonal dominance: partial pivoting never swaps rows, so
        # scipy's pivoted LU is the unpivoted factorisation Prop. 4.1 builds.
        matrix[np.diag_indices(n)] = np.abs(matrix).sum(axis=0) + 1.0
        return matrix
    return matrix + n * np.eye(n)


def _algorithm_reference(name: str, matrix: np.ndarray) -> np.ndarray:
    if name == "shortest_paths":
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        finite = np.where(np.isfinite(matrix), matrix, 0.0)
        return shortest_path(csr_matrix(finite), method="D", directed=True)
    if name == "closure":
        return (reachability_closure(matrix) + np.eye(matrix.shape[0])) > 0
    if name == "floyd_warshall":
        return reachability_closure(matrix) > 0
    if name == "lu":
        from scipy.linalg import lu

        permutation, _, upper = lu(matrix)
        if not np.array_equal(permutation, np.eye(matrix.shape[0])):
            raise RuntimeError("LU input needed pivoting; the generator is wrong")
        return upper
    return np.linalg.inv(matrix)


def algorithm_cases(rng: np.random.Generator) -> List[AlgorithmCase]:
    """One seeded input per paper algorithm, with its reference answer."""
    cases = []
    for name, (builder, semiring, n) in ALGORITHMS.items():
        matrix = _algorithm_input(rng, name, n)
        instance = Instance.from_matrices({"A": matrix}, semiring=SEMIRINGS[semiring])
        cases.append(
            AlgorithmCase(
                name,
                builder("A"),
                semiring,
                instance,
                _algorithm_reference(name, matrix),
                ALGORITHM_RTOL.get(name),
            )
        )
    return cases
