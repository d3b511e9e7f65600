"""1D finite element solver for stress waves in strain-limiting materials."""

from .assembly import BandedMatrix, assemble_load_at, assemble_stiffness
from .calibration import (FitResult, StressStrainDataset, fit_material,
                          generate_synthetic, load_dataset, sse_objective)
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .constitutive import (HyperbolicityError, HyperbolicityReport,
                           MaterialParams, derivatives, strain,
                           strain_derivative, verify_hyperbolicity, wave_speed)
from .fe_space import FeSpace, QuadratureRule, build_space, gauss_rule
from .integrator import (BoundaryDrive, HhtParams, NewtonDivergedError,
                         NewtonReport, NewtonSettings, RunReport, SystemState,
                         advance_step, boundary_acceleration,
                         initial_acceleration, newmark_update, run_simulation)
from .postprocess import (SnapshotRecord, Samples, reconstruct,
                          sample_solution, write_snapshot)
from .verification import (ConvergenceTable, convergence_study, l2_error,
                           mms_fields, mms_forcing, observed_rate)

__version__ = "0.1.0"
