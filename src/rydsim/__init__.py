"""Desk-scale digital quantum simulation of spin and fermion lattice models.

Coherent Trotterized dynamics built from a mesoscopic controlled-NOT^N
gate, a pulse-level model of that gate, exact spin/fermion encodings with
cross-validating oracles, and dissipative stabilizer cooling of the toric
code at Lindblad, quantum-trajectory and classical syndrome level.
"""

__version__ = "0.1.0"
