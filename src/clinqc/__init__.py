"""Quality control of behavioural clinimetric sensor tests.

Preprocess raw accelerometer/microphone recordings, segment them into
behavioural regimes with unsupervised probabilistic models, and classify
each time point as adhering to or violating a test protocol.
"""

from .series import (
    ADHERENCE,
    VIOLATION,
    ScalarSeries,
    StateSequence,
    TimestampedTriaxial,
)

__all__ = [
    "ADHERENCE",
    "VIOLATION",
    "ScalarSeries",
    "StateSequence",
    "TimestampedTriaxial",
]

__version__ = "0.1.0"
