"""Cascaded coordinate-regression pose estimation.

A pose is predicted holistically by a convolutional regressor from the full
initial box, then refined stage by stage with per-joint regressors that look
at progressively tighter crops. Includes the minimal numpy network engine,
PCP/PDJ evaluation metrics, a manifest-based dataset format, and a synthetic
stick-figure generator for desk-scale experiments.
"""

from . import cascade, data, geometry, metrics, nn

__version__ = "0.1.0"
