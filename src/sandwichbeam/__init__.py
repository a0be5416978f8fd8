"""Three-layer sandwich beam laboratory.

Simulates two longitudinal wave layers coupled to a transverse bending
layer under (a) time-varying delayed boundary velocity feedback and (b)
dynamic boundary controls, verifies the energy decay and observability
structure at the discrete level, and synthesizes null controls from the
assembled control Gramian.
"""

__version__ = "0.1.0"
