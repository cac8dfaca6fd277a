"""Equality-constrained quadratic minimization with Lagrange multipliers,
and a staggered-grid Stokes solver built on it in which the pressure is the
multiplier of the incompressibility constraint."""

from .sparse import SparseOperator, as_vector
from .solvers import (ConvergenceError, RankDeficiencyError, SingularSystemError,
                      SolverReport, conjugate_gradient, orthonormal_nullspace_basis,
                      smallest_generalized_eigenpair, symmetric_indefinite_solve)
from .mmio import MatrixMarketError, read_matrix, read_vector, write_matrix, write_vector
from .qp import (InfSupEstimate, MultiplierConsistencyError, OptimalityReport,
                 QpProblem, SaddleSolution, assemble_kkt, check_optimality,
                 estimate_infsup, gradient, load_problem, objective,
                 recover_multiplier, residual_scale, save_solution,
                 solve_kkt_direct, solve_nullspace, solve_projected_cg,
                 solve_schur)
from .stokes import (MacGrid, ManufacturedCase, assemble_operators,
                     build_grid, divergence_free_projector, error_norms,
                     estimate_infsup_stokes, manufactured_case, sample_forcing,
                     solve_stokes_coupled, solve_stokes_minimization,
                     stokes_problem, write_fields_csv)

__version__ = "0.1.0"

__all__ = [
    "SparseOperator", "as_vector",
    "ConvergenceError", "RankDeficiencyError", "SingularSystemError",
    "SolverReport", "conjugate_gradient", "orthonormal_nullspace_basis",
    "smallest_generalized_eigenpair", "symmetric_indefinite_solve",
    "MatrixMarketError", "read_matrix", "read_vector", "write_matrix",
    "write_vector",
    "InfSupEstimate", "MultiplierConsistencyError", "OptimalityReport",
    "QpProblem", "SaddleSolution", "assemble_kkt", "check_optimality",
    "estimate_infsup", "gradient", "load_problem", "objective",
    "recover_multiplier", "residual_scale", "save_solution",
    "solve_kkt_direct", "solve_nullspace", "solve_projected_cg", "solve_schur",
    "MacGrid", "ManufacturedCase", "assemble_operators", "build_grid",
    "divergence_free_projector", "error_norms", "estimate_infsup_stokes",
    "manufactured_case", "sample_forcing", "solve_stokes_coupled",
    "solve_stokes_minimization", "stokes_problem", "write_fields_csv",
    "__version__",
]
