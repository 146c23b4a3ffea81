"""Fortran back-end tests."""

import sympy as sp

from repro.apps import burgers_problem, wave_problem
from repro.codegen import print_function_fortran
from repro.codegen.fortran import FortranPrinter
from repro.core import adjoint_loops

i = sp.Symbol("i", integer=True)
u = sp.Function("u")


def test_access_printed_with_parens():
    p = FortranPrinter()
    assert p.doprint(u(i - 1)) == "u(i - 1)"


def test_heaviside_printed_as_merge():
    p = FortranPrinter()
    out = p.doprint(sp.Heaviside(u(i)))
    assert out == "merge(1.0d0, 0.0d0, u(i) >= 0)"


def test_uninterpreted_derivative_call():
    f = sp.Function("f")
    expr = sp.diff(f(u(i - 1), u(i)), u(i - 1))
    assert FortranPrinter().doprint(expr) == "f_d1(u(i - 1), u(i))"


def test_wave_primal_subroutine():
    prob = wave_problem(3)
    code = print_function_fortran("wave3d", [prob.primal])
    assert "subroutine wave3d(" in code
    assert "implicit none" in code
    assert "!$omp parallel do private(i,j,k)" in code
    assert "do i = 1, n - 2" in code
    assert "end do" in code
    assert "real(kind=8), dimension(:, :, :) :: u" in code
    assert "integer :: n" in code
    assert code.rstrip().endswith("end subroutine wave3d")


def test_increment_expanded_to_assignment():
    """Fortran has no +=; increments print as x = x + (...)."""
    prob = wave_problem(1)
    code = print_function_fortran("w", [prob.primal])
    assert "u(i) = u(i) + (" in code


def test_adjoint_with_guards():
    prob = burgers_problem(1)
    nests = adjoint_loops(prob.primal, prob.adjoint_map, strategy="guarded")
    code = print_function_fortran("b", nests)
    assert ".and." in code and "end if" in code


def test_omp_end_directive_balanced():
    prob = wave_problem(2)
    code = print_function_fortran("w", [prob.primal])
    assert code.count("!$omp parallel do") == code.count("!$omp end parallel do")
