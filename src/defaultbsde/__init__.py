"""Exponential-utility indifference pricing of defaultable claims via BSDEs.

A single risky asset carries a default jump with intensity lambda; the value
function of the exponential-utility problem over strategies in a compact set
solves a Lipschitz BSDE with jumps.  This package solves that BSDE on a grid,
takes the k-truncation limit toward the unconstrained problem, converts value
functions into Hodges indifference prices, and cross-checks everything
against brute-force dynamic programming and Monte Carlo drift tests.
"""
from .approx import KSweepResult, NonConvergenceError, converge, k_sweep
from .driver import (CoeffSnapshot, StrategySet, f_pi, g_quadratic,
                     jump_comparison_bounds, lipschitz_bound, minimize_driver)
from .model import (Claim, InputError, MarketModel, PathEnsemble, PiecewiseConstant,
                    RegimeCoefficients, TimeGrid, ValidationReport, claim_payoff,
                    simulate_paths, validate_model)
from .oracle import DPTree, DriftReport, brute_force_dp, martingale_check
from .pricing import PriceReport, indifference_price, wealth_scaling
from .solver import (Quadrature, SolverError, SpaceGrid, ValueSurface,
                     extract_optimal_strategy, solve_bsde, surface_at_origin)

__version__ = "0.1.0"

__all__ = [
    "CoeffSnapshot", "StrategySet", "f_pi", "minimize_driver", "g_quadratic",
    "lipschitz_bound", "jump_comparison_bounds",
    "Claim", "MarketModel",
    "PiecewiseConstant", "RegimeCoefficients", "TimeGrid", "PathEnsemble",
    "ValidationReport", "InputError", "validate_model", "simulate_paths", "claim_payoff",
    "Quadrature", "SpaceGrid", "ValueSurface", "SolverError", "solve_bsde",
    "extract_optimal_strategy", "surface_at_origin",
    "KSweepResult", "NonConvergenceError", "k_sweep", "converge",
    "PriceReport", "indifference_price", "wealth_scaling",
    "DPTree", "DriftReport", "brute_force_dp", "martingale_check",
    "__version__",
]
