"""skycloak: planner and simulator for UAV-assisted covert satellite downlinks.

The package is organized around five pieces:

- :mod:`skycloak.channel`    fading/link math (shadowed-Rician, LoS, rates)
- :mod:`skycloak.detection`  warden detection model, DEP bounds, covertness map
- :mod:`skycloak.solvers`    stacked SOC rows, log-barrier Newton, Dinkelbach
- :mod:`skycloak.planner`    the two placement/power optimization algorithms
- :mod:`skycloak.cli`        scenario files, sweeps, Monte Carlo validation
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
    elevation_feasible,
    gamma_from_sr,
    sample_sr_power,
    satellite_large_scale,
    sr_cdf,
    sr_pdf,
    uav_gain,
    ue_rate,
)
from skycloak.detection import (
    CovertBound,
    DetectionModel,
    avg_min_dep_lower_bound,
    avg_min_dep_quadrature,
    covert_constraint_satisfied,
    dep,
    fa_probability,
    md_probability,
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
    placement_subproblem,
    power_subproblem,
    validate_solution,
)
from skycloak.scenario_io import (
    LoadedScenario,
    ScenarioError,
    dbm_to_watts,
    db_to_linear,
    default_scenario_dict,
    linear_to_db,
    load_scenario,
    scenario_hash,
    scenario_to_dict,
    watts_to_dbm,
)
from skycloak.solvers import (
    DinkelbachResult,
    FractionalProgram,
    SolverError,
    dinkelbach,
    max_slack_point,
)

__version__ = "0.1.0"
