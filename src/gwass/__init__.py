"""gwass: mass-aware optimal transport distances and particle schemes.

The package computes an exact generalized Wasserstein distance between
finite discrete measures of possibly different total mass (mass can be
removed at unit cost ``a`` or transported at cost ``b * W_p``), and uses it
to run and verify a sample-and-hold Lagrangian scheme for transport
equations whose velocity field and source both depend on the measure.
"""

from .measures import (DEFAULT_QUANTUM, DiscreteMeasure, add, canonicalize,
                       load_measure, measure_from_json, measure_to_json,
                       push_forward, save_measure, scale,
                       total_mass, tv_distance)
from .transport import MassMismatchError, TransportPlan, WpResult, wasserstein
from .gw import (GwParams, GwResult, gw_brute_force, gw_distance,
                 levy_prokhorov_1d)
from .flows import (FieldConstants, FlowConfig, VectorFieldModel,
                    build_velocity_model, flow_pushforward)
from .dynamics import (SourceModel, Trajectory, build_source_model,
                       cauchy_table, continuous_dependence_check,
                       reference_problem, sample_and_hold)

__all__ = [
    "DEFAULT_QUANTUM", "DiscreteMeasure", "add", "canonicalize",
    "load_measure", "measure_from_json", "measure_to_json", "push_forward",
    "save_measure", "scale", "total_mass", "tv_distance",
    "MassMismatchError", "TransportPlan", "WpResult", "wasserstein",
    "GwParams", "GwResult", "gw_brute_force", "gw_distance",
    "levy_prokhorov_1d",
    "FieldConstants", "FlowConfig", "VectorFieldModel",
    "build_velocity_model", "flow_pushforward",
    "SourceModel", "Trajectory", "build_source_model", "cauchy_table",
    "continuous_dependence_check", "reference_problem", "sample_and_hold",
]

__version__ = "0.1.0"
