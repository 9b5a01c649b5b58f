"""Nested gradient codes: construction, exact latency analysis, cluster
simulation, and coded gradient descent with exact full-gradient recovery.

Names are imported from their modules: ``ngcodes.codes``, ``.latency``,
``.simulator``, ``.descent`` and ``.cli``."""

__version__ = "0.1.0"
