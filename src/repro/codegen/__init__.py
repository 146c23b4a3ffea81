"""Code-generation back-ends (C/OpenMP, Fortran, Python/NumPy, native C)."""

from .base import CodegenError, DerivativeCall, match_derivative_call
from .c import CPrinter, generate_c, print_function_c
from .fortran import FortranPrinter, generate_fortran, print_function_fortran
from .native_c import NativeCPrinter, generate_native_source, native_eligibility
from .python_src import generate_python, print_function_python

__all__ = [
    "CPrinter",
    "CodegenError",
    "DerivativeCall",
    "FortranPrinter",
    "NativeCPrinter",
    "generate_c",
    "generate_fortran",
    "generate_native_source",
    "generate_python",
    "match_derivative_call",
    "native_eligibility",
    "print_function_c",
    "print_function_fortran",
    "print_function_python",
]
