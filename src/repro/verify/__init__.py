"""Verification suite: dot-product, finite differences, cross-compare."""

from .compare import AdjointComparison, bitwise_equal, compare_adjoints
from .dotproduct import DotProductResult, dot_product_test
from .findiff import FinDiffResult, finite_difference_test
from .hvp import gradient, hessian_vector_product
from .jacobian import (
    assemble_jacobian_adjoint,
    assemble_jacobian_tangent,
    transpose_check,
)

__all__ = [
    "AdjointComparison",
    "DotProductResult",
    "FinDiffResult",
    "assemble_jacobian_adjoint",
    "assemble_jacobian_tangent",
    "bitwise_equal",
    "compare_adjoints",
    "gradient",
    "hessian_vector_product",
    "transpose_check",
    "dot_product_test",
    "finite_difference_test",
]
