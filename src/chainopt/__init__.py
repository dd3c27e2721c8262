"""Stochastic-process bandit optimization over finite pseudo-metric spaces.

The package builds hierarchical discretization trees with controlled
per-level capacities, derives high-probability bounds on the supremum of
the process over each cell, and runs optimistic (upper-confidence-bound)
query loops whose cumulative regret admits computable certificates.
"""

from .bandit import (BanditState, GPPosterior, OptimizerConfig,
                     RegretBoundSeries, RegretRecord, depth_half_log2,
                     depth_omega_threshold, gamma_t, gp_ucb_step,
                     regret_bound_rhs, run_gp_ucb, run_squared_gp_ucb)
from .chaining import (ChainingTree, TreeNode, build_forward, build_tree,
                       lower_bound_functional, lower_value, omega, omega_table,
                       phi, prune_backward, validate_tree, write_tree)
from .errors import (ArgumentError, CapacityError, ChainoptError, InternalError,
                     NumericError, ParseError)
from .gp import (Kernel, c_eta, canonical_metric_space, gram,
                 information_gain, kernel_eval, parse_kernel, sample_paths,
                 sample_prior, squared_gaussian_interval,
                 squared_gaussian_outside_prob, squared_gp_bounds)
from .harness import (ExperimentConfig, ValidationClaim, ValidationReport,
                      make_ellipsoid, make_grid, make_line, make_star,
                      parse_config, run_experiment, space_from_spec,
                      validate_lemmas, validate_lower, validate_upper)
from .metric import (CoverResult, FiniteMetricSpace, brute_force_min_cover,
                     greedy_cover, is_cover, load_distance_matrix,
                     load_point_cloud, load_space, metric_entropy,
                     sample_cover_compact, write_cover_csv)
from .smoothness import (SmoothnessModel, confidence_level_u_i, ell_u,
                         psi_star_inv, squared_gp_metric, zeta)

__version__ = "0.1.0"
