"""skycloak: planner and simulator for UAV-assisted covert satellite downlinks.

The package is organized around six modules:

- :mod:`skycloak.channel`      fading/link math (shadowed-Rician, LoS, rates)
- :mod:`skycloak.detection`    per-slot minimum DEP, the exact average DEP,
                               DEP bound, covertness map
- :mod:`skycloak.solvers`      stacked SOC rows, log-barrier Newton, Dinkelbach
- :mod:`skycloak.planner`      the two placement/power optimization algorithms
- :mod:`skycloak.scenario_io`  unit-tagged JSON scenario files, scenario hashing
- :mod:`skycloak.cli`          subcommands: DEP table, plan, validate, sweep

The package binds the three names of the README's library use; every other
name is imported from its module.
"""

from skycloak.planner import bcd_optimize, validate_solution
from skycloak.scenario_io import load_scenario

__version__ = "0.1.0"
