"""1D finite element solver for stress waves in strain-limiting materials."""

from .config import ConfigError, ScenarioConfig, parse_config
from .constitutive import HyperbolicityError, MaterialParams
from .integrator import NewtonDivergedError, run_simulation
from .postprocess import reconstruct, sample_solution

__version__ = "0.1.0"

__all__ = ["parse_config", "run_simulation", "sample_solution", "reconstruct",
           "ConfigError", "HyperbolicityError", "NewtonDivergedError",
           "ScenarioConfig", "MaterialParams", "__version__"]
