"""Geometric-loss modeling of a drone-mounted FSO fronthaul link.

The deterministic layer computes the fraction of optical power a circular
photo-detector captures from an obliquely incident Gaussian beam (exactly,
via rotated-ellipse bounds, and via closed-form approximations).  The
statistical layer models pose jitter as independent Gaussians, reduces the
footprint offset to a Hoyt distribution, and validates the resulting loss
density against seeded Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .beam import BeamParams, EllipseParams, beam_width, coherence_length
from .geometry import (
    DegenerateGeometryError,
    FootprintCenter,
    Orientation,
    Pose,
    Position,
    footprint_center,
    spherical_mean_position,
    tracking_orientation,
)
from .geoloss import (
    ApproxParams,
    ChannelInputs,
    DetectorParams,
    approx_bounds,
    approx_mean,
    approx_params,
    bound_lower,
    bound_upper,
    channel_coefficient,
    exact_loss,
    loss_db,
)
from .montecarlo import (
    Histogram,
    LossStats,
    TrialPlan,
    build_histogram,
    chi_square_gof,
    run_trials,
    sample_pose,
)
from .numerics import QuadratureError, SymMatrix2, disk_quadrature, eig_sym2
from .stochastic import (
    GeoLossPdf,
    HoytParams,
    PoseDistribution,
    cdf_hg,
    covariance_sigma,
    geoloss_pdf,
    hoyt_params,
    pdf_hg,
    pdf_hg_rayleigh,
)

__all__ = [
    "ApproxParams",
    "BeamParams",
    "ChannelInputs",
    "DegenerateGeometryError",
    "DetectorParams",
    "EllipseParams",
    "FootprintCenter",
    "GeoLossPdf",
    "Histogram",
    "HoytParams",
    "LossStats",
    "Orientation",
    "Pose",
    "PoseDistribution",
    "Position",
    "QuadratureError",
    "SymMatrix2",
    "TrialPlan",
    "approx_bounds",
    "approx_mean",
    "approx_params",
    "beam_width",
    "bound_lower",
    "bound_upper",
    "build_histogram",
    "cdf_hg",
    "channel_coefficient",
    "chi_square_gof",
    "coherence_length",
    "covariance_sigma",
    "disk_quadrature",
    "eig_sym2",
    "exact_loss",
    "footprint_center",
    "geoloss_pdf",
    "hoyt_params",
    "loss_db",
    "pdf_hg",
    "pdf_hg_rayleigh",
    "run_trials",
    "sample_pose",
    "spherical_mean_position",
    "tracking_orientation",
]
