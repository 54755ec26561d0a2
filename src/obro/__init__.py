"""Robust min-max optimization under objective functional uncertainty.

The decision maker minimizes a cost whose uncertain part is an entire
function drawn adversarially from a neighborhood of a reference curve.
The library represents candidate functions piecewise-linearly, alternates
a worst-case-function subproblem (an LP) with a scenario-cut master
problem (an MILP), and ships a battery-charging scheduling case study on
a radial distribution feeder.
"""

from obro.pwl import (
    Partition,
    SampledFunction,
    NeighborhoodSpec,
    MembershipReport,
    make_partition,
    interp_coefficients,
    interpolate,
    sup_distance,
    trapezoid_deviation,
    check_neighborhood,
    sample_reference,
)
from obro.linsolve import (
    Row,
    LinearProgram,
    MixedIntegerProgram,
    SolveOutcome,
    Solver,
    BranchBoundSolver,
    HighsSolver,
    default_solver,
    solve_lp,
    solve_milp,
)
from obro.model import (
    UncertainTerm,
    ObroProblem,
    Scenario,
    validate,
    evaluate_v,
    reference_scenario,
)
from obro.subproblem import build_subproblem, solve_subproblem
from obro.master import build_master, solve_master
from obro.engine import (
    IterationRecord,
    EngineResult,
    SaddleReport,
    run,
    verify_saddle,
)
from obro.oracle import (
    GridBudgetError,
    RefinementTable,
    brute_force_subproblem,
    enumerate_master,
    refinement_study,
)
from obro.bess import (
    Battery,
    FeederModel,
    ScheduleInputs,
    degradation_reference,
    build_feeder,
    assemble_bess_problem,
    schedule_from_solution,
    voltages_for_schedule,
    state_of_charge,
    parametric_baseline,
)

__version__ = "0.1.0"
