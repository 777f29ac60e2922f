"""Exact combinatorial invariants of Del Pezzo surfaces and theta divisors.

Modules:
    lattice   -- Picard lattices of degree-2/3 Del Pezzo surfaces, Weyl groups
    nodal     -- ADE root configurations and multiplicity schemes
    spin      -- Cornalba spin-structure counting on dual graphs
    theta_f2  -- the F2 algebra of theta characteristics
    poly      -- exact sparse multivariate polynomials over Q
    detrep    -- symmetric determinantal representations and contact conics
    kernels   -- Bareiss determinant and union-find
    text      -- line reader, bounded integer literals, echo (quotes input)
    cli       -- command-line front end
"""

__all__ = ["lattice", "nodal", "spin", "theta_f2", "poly", "detrep", "kernels",
           "text", "cli"]
__version__ = "0.1.0"
