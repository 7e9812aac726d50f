"""risdeploy: RIS deployment planning for mmWave ISAC networks.

Plans multi-RIS deployments (positions, orientations, panel sizes and
beamforming weights) over a 3-D urban scene, minimizing the total
size-to-coverage ratio subject to communication SNR and sensing CRB
constraints, and ships an OFDM radar demonstration pipeline.
"""

__version__ = "0.1.0"

from .errors import (EstimationFailureError,
                     InfeasibleCoverageError, InfeasiblePowerError,
                     InvalidInputError, NoPathError, RisDeployError,
                     SceneFormatError, UnobservablePathError,
                     UnreachableTargetsError, UnsupportedDelayError)

__all__ = [
    "RisDeployError", "InvalidInputError", "SceneFormatError",
    "InfeasibleCoverageError", "NoPathError",
    "UnobservablePathError", "UnreachableTargetsError", "InfeasiblePowerError",
    "UnsupportedDelayError", "EstimationFailureError", "__version__",
]
