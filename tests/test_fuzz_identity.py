"""Seeded random-kernel fuzzing: one semantics across every execution path.

The fifty fuzz kernels ``fuzz00`` .. ``fuzz49`` are structurally random
stencil nests (random coefficients, access shifts, guards,
dimensionality, operators, dtypes) that exercise corners no curated
kernel hits: guard boxes meeting statement bounds at odd offsets, mixed
``=``/``+=`` statement chains, nonlinear terms, bare-counter operands,
reduced-precision sweeps.  They are a kernel axis of the execution
lattice (``tests/test_lattice.py``), which generates them and reaches
every tier that accepts a generic nest; on failure it *shrinks* the
kernel — statements, rhs terms and guards are removed while the node
still fails — and prints the minimal kernel.
"""

from __future__ import annotations

from test_lattice import replaced


test_random_kernel_paths_agree_bitwise = replaced("test_random_kernel_paths_agree_bitwise")
