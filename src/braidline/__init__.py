"""q-deformed calculus, free propagators and scattering on a truncated
Jackson lattice, with an interaction-picture cross-check and a CLI."""

from .qcalc import (
    G1,
    G2,
    QContext,
    QLattice,
    braided_line,
    crossing_transform,
    make_lattice,
)
from .basis import (
    CoefficientVector,
    WaveBasis,
    build_hamiltonian_basis,
    build_qexp_basis,
    delta_kernel,
)
from .propagator import (
    PropagatorKernel,
    compose,
    conjugate_kernel,
    free_propagator,
    make_advanced,
    make_retarded,
    schrodinger_residual,
    source_term,
)
from .scattering import (
    Hamiltonian,
    Potential,
    SMatrix,
    born_radius,
    born_wavefunction,
    conjugate_smatrix,
    gaussian_potential,
    lippmann_schwinger_solve,
    smatrix_momentum,
    unitarity_defect,
)
from .dyson import (
    EvolutionOperator,
    ode_evolution,
    smatrix_from_evolution,
)

__version__ = "0.1.0"
