"""Solvers for principal-agent wage contracts under heterogeneous beliefs.

Computes first-best (observable-action) and second-best (hidden-action)
contracts over a finite output space, with likelihood-ratio order tooling,
closed-form exponential-utility pipelines, comparative-statics sweeps, a
spread-based decomposition of the 4-outcome problem, and a brute-force
grid oracle for validation.
"""

__version__ = "0.1.0"

from .beliefs import (ActionSpec, DeltaVector, Distribution, MlrpOrder,
                      Monotonicity, Party, ProblemInstance, SolverKind,
                      delta_vector, kappa, mlrp_compare, mlrp_strict,
                      reduce_distribution)
from .cara import (CaraSolution, CaraSweep, CaraSystem, branch_interval,
                   cara_compstat, multipliers, solve_system, solve_w1,
                   to_problem_instance, w2_from_w1, w3_from_w1)
from .compstat import BeliefTilt, SweepResult, detect_regime_change, sweep
from .errors import *  # noqa: F401,F403
from .first_best import (DirectionReport, FirstBestSolution, check_prop1,
                         classify_monotonicity, first_best_compstat,
                         solve_first_best)
from .iterative import (EquivalenceReport, InnerSolution, OuterSolution,
                        SpreadProblem, envelope_derivative, equivalence_report,
                        inner_cost, outer_minimize, payment_gap)
from .oracle import (AuditReport, GridSpec, OracleResult, brute_force_min,
                     cell_cost_variation, oracle_audit)
from .problemio import (load_problem, parse_problem, serialize_problem)
from .second_best import (ActionChoiceReport, FigureBundle, KktReport,
                          SecondBestSolution, choose_action, figure_data,
                          kkt_certificate, monotonicity_report,
                          principal_payoff_monotonicity, solve_second_best)
from .utility import (CaraUtility, CrraUtility, LogUtility, SqrtUtility,
                      UtilityModel, utility_from_name)
