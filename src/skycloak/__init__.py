"""skycloak: planner and simulator for UAV-assisted covert satellite downlinks.

The package is organized around six modules:

- :mod:`skycloak.channel`      fading/link math (shadowed-Rician, LoS, rates)
- :mod:`skycloak.detection`    per-slot minimum DEP, DEP bounds, covertness map
- :mod:`skycloak.solvers`      stacked SOC rows, log-barrier Newton, Dinkelbach
- :mod:`skycloak.planner`      the two placement/power optimization algorithms
- :mod:`skycloak.scenario_io`  unit-tagged JSON scenario files, scenario hashing
- :mod:`skycloak.cli`          subcommands: DEP table, plan, validate, sweep
"""

from skycloak.channel import (
    AVERAGE_SHADOWING,
    HEAVY_SHADOWING,
    LIGHT_SHADOWING,
    SHADOWING_ROWS,
    GammaApprox,
    SatelliteLink,
    SRParams,
    UavLinkBudget,
    UavPlacement,
    covert_rate,
    gamma_from_sr,
    sample_sr_power,
    satellite_large_scale,
    sr_cdf,
    uav_gain,
    ue_rate,
)
from skycloak.detection import (
    CovertBound,
    avg_min_dep_lower_bound,
    avg_min_dep_quadrature,
    covert_constraint_satisfied,
    min_dep,
    phi,
    phi_inverse,
)
from skycloak.planner import (
    PlannerInfeasible,
    PowerAllocation,
    Scenario,
    Solution,
    ValidationReport,
    bcd_optimize,
    bob_rate,
    constraint_residuals,
    perfect_cancellation_optimize,
    power_subproblem,
    validate_solution,
)
from skycloak.scenario_io import (
    LoadedScenario,
    ScenarioError,
    dbm_to_watts,
    db_to_linear,
    load_scenario,
    scenario_hash,
)
from skycloak.solvers import (
    DinkelbachResult,
    SolverError,
    dinkelbach,
    max_slack_point,
)

__version__ = "0.1.0"
