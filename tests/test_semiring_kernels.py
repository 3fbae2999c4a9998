"""Property tests for the vectorized kernel backends.

Every registered semiring's kernel backend must agree entrywise with the
generic object-dtype scalar fold (:class:`ObjectFoldKernels`) on random
carrier matrices — that equivalence is the kernel contract of
:mod:`repro.semiring.kernels`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiringError
from repro.semiring import (
    BOOLEAN,
    INTEGER,
    MAX_PLUS,
    MIN_PLUS,
    NATURAL,
    REAL,
    ObjectFoldKernels,
    Semiring,
    available_semirings,
    kernels_for,
)
from repro.semiring.kernels import (
    BooleanKernels,
    Float64FieldKernels,
    Int64Kernels,
    TropicalKernels,
)
from repro.semiring.provenance import PROVENANCE
from repro.semiring.registry import get_semiring

SEMIRING_ELEMENTS = {
    "real": st.floats(min_value=-10, max_value=10, allow_nan=False),
    "integer": st.integers(min_value=-50, max_value=50),
    "natural": st.integers(min_value=0, max_value=50),
    "boolean": st.booleans(),
    "min_plus": st.one_of(
        st.just(math.inf), st.floats(min_value=-10, max_value=10, allow_nan=False)
    ),
    "max_plus": st.one_of(
        st.just(-math.inf), st.floats(min_value=-10, max_value=10, allow_nan=False)
    ),
    "provenance": st.sampled_from(["p", "q", "r", 0, 1, 2]),
}


def _matrix_strategy(name, rows, cols):
    elements = SEMIRING_ELEMENTS[name]
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def _object_matrix(semiring, rows):
    matrix = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            matrix[i, j] = semiring.coerce(value)
    return matrix


def _assert_matrices_agree(semiring, vectorized, reference, context):
    assert vectorized.shape == reference.shape, context
    for index in np.ndindex(reference.shape):
        assert semiring.close_to(vectorized[index], reference[index], 1e-6), (
            f"{context}: entry {index} differs: "
            f"{vectorized[index]!r} != {reference[index]!r}"
        )


def _check_all_operations(semiring, left_rows, right_rows):
    fold = ObjectFoldKernels(semiring, dtype=object)
    kernels = semiring.kernels

    left_obj = _object_matrix(semiring, left_rows)
    right_obj = _object_matrix(semiring, right_rows)
    left_vec = kernels.coerce_matrix(left_obj)
    right_vec = kernels.coerce_matrix(right_obj)

    _assert_matrices_agree(semiring, left_vec, left_obj, "coerce_matrix")

    _assert_matrices_agree(
        semiring,
        kernels.matmul(left_vec, right_vec),
        fold.matmul(left_obj, right_obj),
        "matmul",
    )
    _assert_matrices_agree(
        semiring,
        kernels.add_matrices(left_vec, left_vec),
        fold.add_matrices(left_obj, left_obj),
        "add_matrices",
    )
    _assert_matrices_agree(
        semiring,
        kernels.hadamard(left_vec, left_vec),
        fold.hadamard(left_obj, left_obj),
        "hadamard",
    )

    factor = left_obj[0, 0]
    _assert_matrices_agree(
        semiring,
        kernels.scale(factor, right_vec),
        fold.scale(factor, right_obj),
        "scale",
    )

    column_obj = left_obj[:, :1]
    column_vec = left_vec[:, :1]
    _assert_matrices_agree(
        semiring, kernels.diag(column_vec), fold.diag(column_obj), "diag"
    )
    _assert_matrices_agree(
        semiring, kernels.identity(3), fold.identity(3), "identity"
    )
    _assert_matrices_agree(semiring, kernels.zeros(2, 3), fold.zeros(2, 3), "zeros")
    _assert_matrices_agree(semiring, kernels.ones(2, 3), fold.ones(2, 3), "ones")

    values = [left_obj[index] for index in np.ndindex(left_obj.shape)]
    assert semiring.close_to(kernels.sum(values), fold.sum(values), 1e-6)
    assert semiring.close_to(kernels.product(values), fold.product(values), 1e-6)

    assert kernels.matrices_equal(left_vec, kernels.coerce_matrix(left_obj))


@pytest.mark.parametrize(
    "name", ["real", "integer", "natural", "boolean", "min_plus", "max_plus", "provenance"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_agree_with_object_fold(name, data):
    semiring = get_semiring(name)
    left = data.draw(_matrix_strategy(name, 3, 4))
    right = data.draw(_matrix_strategy(name, 4, 3))
    _check_all_operations(semiring, left, right)


def test_every_registered_semiring_is_covered():
    """The property test above must not silently skip a registered semiring."""
    # Throwaway semirings registered by other test modules are exempt.
    registered = {name for name in available_semirings() if not name.startswith("test_")}
    assert registered <= set(SEMIRING_ELEMENTS), (
        "a newly registered semiring needs an element strategy in "
        "SEMIRING_ELEMENTS so the kernel equivalence property covers it"
    )


class TestBackendSelection:
    def test_builtin_backends(self):
        assert isinstance(REAL.kernels, Float64FieldKernels)
        assert isinstance(BOOLEAN.kernels, BooleanKernels)
        assert isinstance(NATURAL.kernels, Int64Kernels)
        assert isinstance(INTEGER.kernels, Int64Kernels)
        assert isinstance(MIN_PLUS.kernels, TropicalKernels)
        assert isinstance(MAX_PLUS.kernels, TropicalKernels)
        assert isinstance(PROVENANCE.kernels, ObjectFoldKernels)

    def test_storage_dtypes_match_declared_dtype(self):
        for name in available_semirings():
            semiring = get_semiring(name)
            assert semiring.kernels.dtype == semiring.dtype, name
            assert semiring.zeros(2, 2).dtype == semiring.dtype, name

    def test_unknown_semiring_falls_back_to_object_fold(self):
        class OddSemiring(Semiring):
            name = "test_kernels_fallback"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return max(left, right)

            def times(self, left, right):
                return min(left, right)

            def coerce(self, value):
                return float(value)

        backend = kernels_for(OddSemiring())
        assert isinstance(backend, ObjectFoldKernels)
        assert backend.dtype is object

    def test_fallback_honors_a_subclass_declared_dtype(self):
        # A custom semiring may shadow the derived dtype property with a
        # plain class attribute; the object-fold fallback must respect it.
        class DeclaredDtype(Semiring):
            name = "test_kernels_declared_dtype"
            dtype = np.float64

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return max(left, right)

            def times(self, left, right):
                return min(left, right)

            def coerce(self, value):
                return float(value)

        semiring = DeclaredDtype()
        assert isinstance(semiring.kernels, ObjectFoldKernels)
        assert semiring.kernels.dtype == np.float64
        assert semiring.zeros(2, 2).dtype == np.float64

    def test_overwriting_a_semiring_drops_the_stale_kernel_factory(self):
        from repro.semiring import register_semiring

        def make(name):
            class Custom(Semiring):
                @property
                def zero(self):
                    return 0

                @property
                def one(self):
                    return 1

                def plus(self, left, right):
                    return int(left) + int(right)

                def times(self, left, right):
                    return int(left) * int(right)

                def coerce(self, value):
                    return int(value)

            Custom.name = name
            return Custom()

        first = make("test_kernels_overwrite")
        register_semiring(first, kernels=Int64Kernels)
        assert isinstance(first.kernels, Int64Kernels)
        # Re-registering without a kernels factory must not silently inherit
        # the old vectorized backend.
        second = make("test_kernels_overwrite")
        register_semiring(second, overwrite=True)
        assert isinstance(second.kernels, ObjectFoldKernels)

    def test_int64_scale_coerces_the_factor(self):
        # Regression: int(factor) silently truncated 2.5, and NATURAL.scale
        # accepted a negative factor, emitting an out-of-carrier matrix.
        matrix = NATURAL.coerce_matrix(np.array([[2, 3]]))
        with pytest.raises(SemiringError):
            NATURAL.scale(2.5, matrix)
        with pytest.raises(SemiringError):
            NATURAL.scale(-1, matrix)
        assert INTEGER.scale(-1, matrix).tolist() == [[-2, -3]]

    def test_tropical_scale_rejects_out_of_carrier_factor(self):
        # Regression: scale(-inf, M) over min-plus produced NaN wherever M
        # held the tropical zero (+inf), instead of rejecting the factor.
        matrix = MIN_PLUS.coerce_matrix(np.array([[2.0, math.inf]]))
        with pytest.raises(SemiringError):
            MIN_PLUS.scale(-math.inf, matrix)
        scaled = MIN_PLUS.scale(math.inf, matrix)  # the zero annihilates
        assert np.all(scaled == math.inf)

    def test_register_kernels_then_semiring_overwrite_keeps_kernels(self):
        # Regression: the defensive order register_kernels(...) followed by
        # register_semiring(..., overwrite=True) used to drop the factory.
        from repro.semiring import register_semiring
        from repro.semiring.kernels import register_kernels

        class Custom(Semiring):
            name = "test_kernels_preinstalled"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return left + right

            def times(self, left, right):
                return left * right

            def coerce(self, value):
                return float(value)

        register_kernels("test_kernels_preinstalled", Float64FieldKernels)
        semiring = Custom()
        register_semiring(semiring, overwrite=True)
        assert isinstance(semiring.kernels, Float64FieldKernels)

    def test_reregistering_the_same_semiring_keeps_its_kernels(self):
        # An idempotent "ensure registered" refresh of a builtin must not
        # silently degrade it to the object fold.
        from repro.semiring import register_semiring

        register_semiring(REAL, overwrite=True)
        assert isinstance(REAL.kernels, Float64FieldKernels)
        assert REAL.dtype == np.float64

    def test_kernel_backend_is_cached_per_semiring(self):
        assert REAL.kernels is REAL.kernels

    def test_reregistering_kernels_takes_effect_immediately(self):
        # Regression: the error message advertises ObjectFoldKernels as the
        # arbitrary-precision escape hatch; following that advice must
        # actually work, including for singletons with a cached backend.
        from repro.semiring.kernels import register_kernels

        assert isinstance(INTEGER.kernels, Int64Kernels)  # prime the cache
        register_kernels("integer", ObjectFoldKernels, overwrite=True)
        try:
            coerced = INTEGER.coerce_matrix(np.array([[2**70]], dtype=object))
            assert coerced.dtype == object
            assert coerced[0, 0] == 2**70
            # Semiring.dtype is derived from the backend, so it follows.
            assert INTEGER.dtype is object
        finally:
            register_kernels("integer", Int64Kernels, overwrite=True)
        assert isinstance(INTEGER.kernels, Int64Kernels)
        assert INTEGER.dtype == np.int64

    def test_register_semiring_is_atomic_when_kernels_clash(self):
        # Regression: a failing kernels registration used to leave the
        # semiring half-registered.
        from repro.exceptions import SemiringError as SRError
        from repro.semiring import register_semiring
        from repro.semiring.kernels import register_kernels

        class Clashing(Semiring):
            name = "test_kernels_clash"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return left + right

            def times(self, left, right):
                return left * right

            def coerce(self, value):
                return float(value)

        register_kernels("test_kernels_clash", ObjectFoldKernels)
        with pytest.raises(SRError):
            register_semiring(Clashing(), kernels=ObjectFoldKernels)
        assert "test_kernels_clash" not in available_semirings()


class TestShapeValidation:
    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_matmul_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.matmul(semiring.zeros(2, 3), semiring.zeros(2, 3))

    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_add_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.add_matrices(semiring.zeros(2, 3), semiring.zeros(3, 2))

    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_hadamard_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.hadamard(semiring.zeros(2, 3), semiring.zeros(3, 2))

    def test_matrices_equal_shape_mismatch_is_false(self):
        assert not MIN_PLUS.matrices_equal(MIN_PLUS.zeros(2, 2), MIN_PLUS.zeros(3, 3))


class TestCarrierBoundaries:
    def test_natural_rejects_negative_matrix_entries(self):
        with pytest.raises(SemiringError):
            NATURAL.coerce_matrix(np.array([[1, -2], [3, 4]]))

    def test_natural_rejects_non_integral_floats(self):
        with pytest.raises(SemiringError):
            NATURAL.coerce_matrix(np.array([[1.5, 2.0]]))

    def test_int64_rejects_values_that_do_not_fit(self):
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[2**70]], dtype=object))

    def test_int64_rejects_oversized_floats_instead_of_wrapping(self):
        # Regression: 1e19 passed the integrality check and then astype
        # silently wrapped it to a negative int64.
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[1e19]]))

    def test_int64_rejects_oversized_uint64(self):
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[2**63]], dtype=np.uint64))
        # int64 max itself still fits.
        fits = INTEGER.coerce_matrix(np.array([[2**63 - 1]], dtype=np.uint64))
        assert fits[0, 0] == 2**63 - 1

    def test_from_rows_and_scalar_raise_semiring_error_for_big_ints(self):
        from repro.semiring import from_rows, scalar

        with pytest.raises(SemiringError):
            from_rows(INTEGER, [[2**70]])
        with pytest.raises(SemiringError):
            scalar(NATURAL, 2**70)

    def test_from_entries_sparse_construction(self):
        from repro.semiring import from_entries

        matrix = from_entries(MIN_PLUS, 2, 3, {(0, 1): 4.0, (1, 2): 0.5})
        assert matrix.dtype == np.float64
        assert matrix[0, 1] == 4.0 and matrix[1, 2] == 0.5
        assert matrix[0, 0] == math.inf  # zero background
        with pytest.raises(SemiringError):
            from_entries(MIN_PLUS, 2, 2, {(0, 0): -math.inf})
        with pytest.raises(SemiringError):
            from_entries(NATURAL, 2, 2, {(1, 1): 2**70})

    def test_from_entries_validates_indices(self):
        from repro.semiring import from_entries

        # Negative indices must not wrap to the other end of the matrix.
        with pytest.raises(SemiringError):
            from_entries(REAL, 3, 3, {(-1, 0): 5.0})
        with pytest.raises(SemiringError):
            from_entries(REAL, 3, 3, {(7, 0): 5.0})

    def test_matrices_equal_accepts_object_dtype_input(self):
        # Regression: object-dtype was the tropical storage before the
        # kernel backends; comparisons on caller-held legacy arrays crashed
        # on np.isfinite over object arrays.
        legacy = np.array([[1.0, math.inf]], dtype=object)
        assert MIN_PLUS.matrices_equal(legacy, np.array([[1.0, math.inf]]))
        assert not MIN_PLUS.matrices_equal(legacy, np.array([[2.0, math.inf]]))

    def test_diagonal_helper(self):
        from repro.semiring import diagonal

        matrix = diagonal(MIN_PLUS, np.array([[1.0], [2.0]]))
        assert matrix[0, 0] == 1.0 and matrix[1, 1] == 2.0
        assert matrix[0, 1] == math.inf
        with pytest.raises(SemiringError):
            diagonal(MIN_PLUS, MIN_PLUS.zeros(2, 2))

    def test_storage_dtype_inputs_are_still_carrier_checked(self):
        # Regression: float64 min-plus arrays holding -inf (or NaN) used to
        # skip validation because the dtype already matched, and int64
        # arrays with negatives slipped past the naturals.
        with pytest.raises(SemiringError):
            MIN_PLUS.matmul(
                np.array([[-np.inf, 1.0]]), np.array([[np.inf], [2.0]])
            )
        with pytest.raises(SemiringError):
            NATURAL.matmul(
                np.array([[-2]], dtype=np.int64), np.array([[3]], dtype=np.int64)
            )
        with pytest.raises(SemiringError):
            MIN_PLUS.sum([math.nan, 1.0])

    def test_matrices_equal_is_total_on_out_of_carrier_input(self):
        # The equality predicate compares without coercing, so invalid
        # inputs yield False/True rather than an exception.
        assert not NATURAL.matrices_equal(
            np.array([[-1]], dtype=np.int32), np.array([[1]])
        )
        assert NATURAL.matrices_equal(
            np.array([[-1]], dtype=np.int32), np.array([[-1]], dtype=np.int32)
        )

    def test_public_ops_normalize_non_storage_input_arrays(self):
        # Regression: an int32 array fed to Semiring.matmul used to
        # accumulate (and silently wrap) in int32, and raw int arrays fed to
        # boolean addition produced bitwise garbage.
        small = np.array([[2**20]], dtype=np.int32)
        assert INTEGER.matmul(small, small)[0, 0] == 2**40
        assert BOOLEAN.add_matrices(np.array([[1]]), np.array([[2]])).tolist() == [[True]]
        assert MIN_PLUS.add_matrices(np.array([[3]]), np.array([[1]]))[0, 0] == 1.0

    def test_coerce_matrix_never_aliases_the_input(self):
        for semiring, source in [
            (BOOLEAN, np.array([[True, False]])),
            (REAL, np.array([[1.0, 2.0]])),
            (NATURAL, np.array([[1, 2]], dtype=np.int64)),
            (MIN_PLUS, np.array([[1.0, 2.0]])),
        ]:
            coerced = semiring.coerce_matrix(source)
            assert coerced is not source, semiring.name
            assert not np.shares_memory(coerced, source), semiring.name

    def test_tropical_matmul_with_empty_inner_dimension_is_the_zero_matrix(self):
        # Regression: np.min over the empty inner axis raised ValueError where
        # the generic fold returned the all-zero (all-inf) matrix.
        result = MIN_PLUS.matmul(
            np.full((2, 0), math.inf), np.full((0, 3), math.inf)
        )
        assert result.shape == (2, 3)
        assert np.all(result == math.inf)

    def test_boolean_coerces_counts_to_presence(self):
        coerced = BOOLEAN.coerce_matrix(np.array([[0, 2], [7, 0]]))
        assert coerced.dtype == np.bool_
        assert coerced.tolist() == [[False, True], [True, False]]

    def test_tropical_bool_input_uses_semiring_embedding(self):
        # True -> one (0.0), False -> zero (inf): the boolean embedding, not
        # numpy's float cast of True/False to 1.0/0.0.
        coerced = MIN_PLUS.coerce_matrix(np.array([[True, False]]))
        assert coerced[0, 0] == 0.0
        assert coerced[0, 1] == math.inf

    def test_min_plus_matrix_rejects_out_of_carrier_infinity(self):
        with pytest.raises(SemiringError):
            MIN_PLUS.coerce_matrix(np.array([[1.0, -math.inf]]))

    def test_max_plus_matrix_rejects_out_of_carrier_infinity(self):
        with pytest.raises(SemiringError):
            MAX_PLUS.coerce_matrix(np.array([[1.0, math.inf]]))

    def test_tropical_matrix_rejects_nan(self):
        with pytest.raises(SemiringError):
            MIN_PLUS.coerce_matrix(np.array([[1.0, math.nan]]))


class TestAggregations:
    def test_int64_operations_never_wrap_silently(self):
        # Regression: matmul/add/hadamard/scale used to wrap past 2**63 - 1.
        # A result that truly does not fit must raise SemiringError...
        big = INTEGER.coerce_matrix(np.array([[2**40]]))
        with pytest.raises(SemiringError):
            INTEGER.matmul(big, big)
        with pytest.raises(SemiringError):
            INTEGER.scale(2**40, big)
        with pytest.raises(SemiringError):
            INTEGER.hadamard(big, big)
        near_max = INTEGER.coerce_matrix(np.array([[2**62]]))
        with pytest.raises(SemiringError):
            INTEGER.add_matrices(near_max, near_max)

    def test_int64_exact_fallback_when_bound_overestimates(self):
        # ...but when the naive bound overflows while the true result fits,
        # the exact fold fallback still returns the right int64 answer.
        left = INTEGER.coerce_matrix(np.array([[2**40, -(2**40)]]))
        right = INTEGER.coerce_matrix(np.array([[2**40], [2**40]]))
        assert INTEGER.matmul(left, right)[0, 0] == 0
        near_max = INTEGER.coerce_matrix(np.array([[2**62]]))
        almost = INTEGER.coerce_matrix(np.array([[2**62 - 1]]))
        assert INTEGER.add_matrices(near_max, almost)[0, 0] == 2**63 - 1

    def test_int64_aggregations_are_exact_beyond_int64_range(self):
        # Regression: numpy int64 reductions wrap; sum/product must keep the
        # exact Python-int fold even though matrices are stored as int64.
        assert NATURAL.sum([2**62] * 4) == 2**64
        assert INTEGER.product([2**40, 2**40]) == 2**80

    def test_sum_and_product_return_python_scalars(self):
        assert NATURAL.sum([1, 2, 3]) == 6
        assert isinstance(NATURAL.sum([1, 2, 3]), int)
        assert BOOLEAN.sum([False, True]) is True
        assert BOOLEAN.product([True, False]) is False
        assert MIN_PLUS.sum([3.0, 1.0, math.inf]) == 1.0
        assert MIN_PLUS.product([3.0, 1.0]) == 4.0
        assert REAL.sum([0.5, 0.25]) == 0.75

    def test_empty_aggregations_are_identities(self):
        assert NATURAL.sum([]) == 0
        assert NATURAL.product([]) == 1
        assert MIN_PLUS.sum([]) == math.inf
        assert BOOLEAN.sum([]) is False

    def test_generator_inputs_are_folded_once(self):
        assert NATURAL.sum(value for value in (1, 2, 3)) == 6
        assert PROVENANCE.sum(PROVENANCE.coerce(token) for token in ("p", "q")) is not None


TROPICAL = [MIN_PLUS, MAX_PLUS]


def _tropical_operand(semiring, shape, seed, layout):
    """Uniform floats with ~30% semiring-zero entries, in the given memory layout."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-5, 5, size=shape)
    values[rng.random(shape) < 0.3] = semiring.zero
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "transposed":
        # The same values as a transposed view of a contiguous array.
        return np.ascontiguousarray(np.swapaxes(values, -1, -2)).swapaxes(-1, -2)
    if layout == "broadcast":
        # One instance shared by the whole batch through a stride-0 axis.
        return np.broadcast_to(values[:1], shape)
    return values


def _naive_tropical_product(semiring, left, right):
    reduce = np.min if semiring.zero == math.inf else np.max
    outer = left[..., :, :, None] + right[..., None, :, :]
    return reduce(outer, axis=-2, initial=float(semiring.zero))


class TestTropicalProduct:
    """Both product branches stay bitwise equal to a naive broadcast reference."""

    LAYOUTS = ["c", "fortran", "transposed"]
    # (rows, inner, cols), including every empty axis and n = 1.
    SHAPES = [(7, 5, 9), (17, 33, 13), (1, 1, 1), (3, 0, 4), (0, 4, 3), (3, 4, 0), (0, 0, 0)]

    @pytest.fixture(params=["outer_sum", "rank1"])
    def branch(self, request, monkeypatch):
        force_outer_sum = request.param == "outer_sum"
        monkeypatch.setattr(
            TropicalKernels, "_RANK1_MIN_ENTRIES", 1 << 62 if force_outer_sum else 0
        )
        monkeypatch.setattr(
            TropicalKernels, "_RANK1_ENTRIES_PER_STEP", 1 << 62 if force_outer_sum else 0
        )
        return request.param

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matmul_matches_naive_reference(self, semiring, layout, shape, branch):
        rows, inner, cols = shape
        left = _tropical_operand(semiring, (rows, inner), 1, layout)
        right = _tropical_operand(semiring, (inner, cols), 2, layout)
        result = semiring.kernels.matmul(left, right)
        assert result.dtype == np.float64 and result.shape == (rows, cols)
        assert np.array_equal(result, _naive_tropical_product(semiring, left, right))

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    @pytest.mark.parametrize("layout", LAYOUTS + ["broadcast"])
    @pytest.mark.parametrize("batch", [0, 4])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_batch_matmul_matches_naive_reference(
        self, semiring, layout, batch, shape, branch
    ):
        rows, inner, cols = shape
        left = _tropical_operand(semiring, (batch, rows, inner), 3, layout)
        right = _tropical_operand(semiring, (batch, inner, cols), 4, layout)
        result = semiring.kernels.batch_matmul(left, right)
        assert result.dtype == np.float64 and result.shape == (batch, rows, cols)
        assert np.array_equal(result, _naive_tropical_product(semiring, left, right))

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    def test_result_is_fresh_and_operands_untouched(self, semiring, branch):
        left = _tropical_operand(semiring, (6, 6), 5, "c")
        right = _tropical_operand(semiring, (6, 6), 6, "c")
        before = (left.copy(), right.copy())
        result = semiring.kernels.matmul(left, right)
        result[...] = 0.0
        assert np.array_equal(left, before[0]) and np.array_equal(right, before[1])
        assert np.array_equal(
            semiring.kernels.matmul(left, right),
            _naive_tropical_product(semiring, left, right),
        )

    def test_all_zero_operands_give_the_semiring_zero(self, branch):
        for semiring in TROPICAL:
            zeros = semiring.kernels.zeros(5, 5)
            assert np.array_equal(semiring.kernels.matmul(zeros, zeros), zeros)


class TestInt64PerRowBound:
    """The tightened (per-row / per-operation) int64 overflow guard."""

    def _no_fallback(self, monkeypatch):
        def boom(self, operation, *operands):
            raise AssertionError("expected the vectorized fast path, got the exact fallback")

        from repro.semiring.kernels import Int64Kernels

        monkeypatch.setattr(Int64Kernels, "_exact_fallback", boom)

    def test_matmul_stays_vectorized_when_rows_fit(self, monkeypatch):
        # Global bound: 4 * 2**31 * 2**31 = 2**64 overflows, but each row
        # holds a single large entry, so the per-row bound (2**62) fits.
        self._no_fallback(monkeypatch)
        big = np.diag([2**31] * 4).astype(np.int64)
        result = INTEGER.matmul(big, big)
        assert result[0, 0] == 2**62
        assert np.all(np.asarray(result)[~np.eye(4, dtype=bool)] == 0)

    def test_hadamard_stays_vectorized_when_entries_fit(self, monkeypatch):
        # max|L| * max|R| = 2**62 * 4 overflows, but the extrema live in
        # different cells, so the entrywise bound fits.
        self._no_fallback(monkeypatch)
        left = np.array([[2**62, 2], [3, 4]], dtype=np.int64)
        right = np.array([[1, 4], [4, 4]], dtype=np.int64)
        result = INTEGER.hadamard(left, right)
        assert result[0, 0] == 2**62 and result[1, 1] == 16

    def test_add_stays_vectorized_when_entries_fit(self, monkeypatch):
        self._no_fallback(monkeypatch)
        left = np.array([[2**62, 0], [0, 2**62]], dtype=np.int64)
        right = np.array([[0, 2**62], [2**62, 0]], dtype=np.int64)
        result = INTEGER.add_matrices(left, right)
        assert np.all(np.asarray(result) == 2**62)

    def test_true_overflow_still_raises(self):
        big = np.diag([2**62] * 2).astype(np.int64)
        with pytest.raises(SemiringError):
            INTEGER.matmul(big, big)
        with pytest.raises(SemiringError):
            INTEGER.add_matrices(big, big)
        with pytest.raises(SemiringError):
            INTEGER.hadamard(big, big)

    def test_per_row_results_match_exact_fold(self):
        # The refined bound must never change values, only the code path:
        # one big entry per matrix defeats the global extrema bound while
        # every actual row product still fits int64.
        rng = np.random.default_rng(23)
        left = rng.integers(-100, 100, size=(5, 5)).astype(np.int64)
        right = rng.integers(-100, 100, size=(5, 5)).astype(np.int64)
        left[0, 0] = 2**31
        right[0, 0] = 2**31
        fold = ObjectFoldKernels(INTEGER, dtype=object)
        expected = fold.matmul(left.astype(object), right.astype(object))
        assert np.array_equal(
            np.asarray(INTEGER.matmul(left, right), dtype=object), expected
        )
