"""Desk-scale digital quantum simulation of spin and fermion lattice models.

Coherent Trotterized dynamics built from a mesoscopic controlled-NOT^N
gate, a pulse-level model of that gate, exact spin/fermion encodings with
cross-validating oracles, and dissipative stabilizer cooling of the toric
code at Lindblad, quantum-trajectory and classical syndrome level.
"""

from .cooling import (
    CoolingParams,
    EquivalenceReport,
    Trace,
    cooling_cycle_trajectory,
    equivalence_check,
    jump_operator,
    lindblad_integrate,
    lindblad_reference_trace,
    state_from_config,
    syndrome_mc_run,
    trajectory_run,
)
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    IntegrationError,
    UnmappedTermError,
    UnsupportedGeometryError,
)
from .fock import FockBasis, hubbard_matrix, spectrum
from .gates import (
    GateSpec,
    cnot_n,
    controlled_flip,
    faulty_gate,
    flip_probability,
    hadamard,
    heisenberg_xx_step,
    heisenberg_yy_step,
    heisenberg_zz_step,
    hopping_step,
    plaquette_step,
    star_step,
    syndrome_map,
)
from .models import (
    HubbardSpec,
    ToricLattice,
    aux_pair_count,
    aux_stabilizers,
    build_aux_hamiltonian,
    build_heisenberg,
    build_hubbard_jw,
    build_hubbard_local,
    build_toric,
    grid_adjacency,
    snake_ordering,
    toric_ground_state,
)
from .pauli import (
    OperatorSum,
    PauliString,
    commutes,
    format_operator,
    jw_annihilator,
    jw_creator,
    jw_number,
    parse_operator,
    pauli_mul,
    to_matrix,
)
from .pulse import (
    PulseOutcome,
    PulseProfile,
    calibrate_area,
    calibrate_duration,
    evolve_pulse,
    gate_fidelity,
    heff,
    raman_area,
)
from .statevec import (
    DensityMatrix,
    StateVector,
    measure_projector,
)
from .trotter import Circuit, Gate, run, trotterize

__version__ = "0.1.0"
