"""Planewave spectral toolkit for periodic Schrodinger problems with
analytic potentials: linear source and eigenvalue solves with
exponential-convergence diagnostics, analyticity-strip estimation from
Fourier decay, the cubic nonlinear problem with its closed-form limit,
imaginary-axis blow-up analysis, and Bloch band structures on general
lattices."""

__version__ = "0.1.0"

from .blowup import (AxisRealnessReport, BlowupReport, EnergyDriftReport,
                     LowerBoundCheck, OdeTrajectory, axis_decoupling_check,
                     blowup_report, comparison_blowup_time, comparison_solution,
                     energy_drift_check, integrate_comparison, integrate_psi,
                     locate_crossings, trajectory_diagnostics,
                     verify_lower_bound)
from .bloch import (BandStructure, FourierSeriesD, Lattice,
                    PlanewaveBasis, assemble_bloch, band_structure, basis_set,
                    bz_sample_grid, gaussian_potential, reciprocal,
                    series1d_to_lattice)
from .cubic import (GpSolveResult, branch_point_height, cardano_discriminant,
                    cardano_root, estimate_solution_strip, solve_gp)
from .eigen import (ConvergenceTable, EigenResult, ErrorTable, StripBoundCheck,
                    bz_convergence, convergence_study, eigenvector_strip_check,
                    fit_log_rate, h1_distance, solve_eig)
from .errors import (BranchPointWarning, ConfigError, InsufficientDataError,
                     InvalidParameterError, NoCrossingError,
                     NonconvergenceError, PreconditionError,
                     SolverFailureError, StiffnessError, StripwaveError)
from .fourier import (AnalyticityEstimate, FourierSeries1D, estimate_strip,
                      grid_values, h1_norm, l2_norm, multiplier_norm_bound,
                      multiply, project, series_from_json, strip_norm,
                      strip_weight)
from .linear import (TailBoundReport, refinement_study, solve_linear,
                     tail_bound_check)
from . import potentials
