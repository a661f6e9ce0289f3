"""Geometric optimal control of rigid-body attitude: rotation-group math,
Riccati solvers and LQR gains, a group-preserving simulator, regulation and
tracking feedback laws, and boundary-value solvers for avoidance and
finite-time regulation.
"""

from .errors import (
    AngleNearPi,
    ConfigError,
    GeoLqrError,
    NoConvergence,
    NoDescent,
    NoStabilizingSolution,
    NotControllable,
    NumericalDivergence,
    ObstacleContact,
    ParseError,
    StepTooLarge,
    ValidationError,
)
from .so3 import (
    as_rotation,
    exp_so3,
    geodesic_distance,
    hat,
    log_so3,
    orthogonality_defect,
    transport_velocity,
    vee,
)
from .riccati import (
    CostParams,
    GainPair,
    GainSchedule,
    RiccatiSolution,
    are_residual,
    are_solve,
    dre_integrate,
    drift_matrix,
    scalar_residual,
)
from .dynamics import (
    InertiaTensor,
    RigidBodyState,
    SimParams,
    TrajectoryLog,
    euler_rhs,
    lie_euler_step,
    simulate,
)
from .regulators import (
    ReferenceSample,
    TrackingReference,
    feedforward_torque,
    lyapunov_value,
    regulation_controller,
    regulation_torque,
    tracking_controller,
    tracking_pd_torque,
    value_candidate,
)
from .pmp import (
    AvoidanceScenario,
    BVPSolution,
    CostateTrajectory,
    SphereObstacle,
    VariationTrajectory,
    costate_integrate,
    shooting_solve,
    trajectory_cost,
    transcription_oracle,
    variational_propagate,
)

__version__ = "0.1.0"
