"""Subcritical contact process on Z: graphical construction, and the
quasi-stationary behaviour of the process seen from its rightmost point,
exact on the depth-L truncated chain and by Monte Carlo on the free
process."""

__version__ = "0.1.0"
