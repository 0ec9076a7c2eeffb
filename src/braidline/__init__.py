"""q-deformed calculus, free propagators and scattering on a truncated
Jackson lattice, with an interaction-picture cross-check and a CLI."""

from .qcalc import (
    G1,
    G2,
    LatticeFunction,
    QContext,
    QLattice,
    braided_line,
    crossing_transform,
    jackson_derivative,
    jackson_integral,
    kappa_scale,
    make_lattice,
    q_exponential,
    q_factorial,
    q_number,
    sesquilinear,
)
from .basis import (
    CoefficientVector,
    WaveBasis,
    build_hamiltonian_basis,
    build_qexp_basis,
    delta_kernel,
    expand,
    project,
)
from .propagator import (
    PropagatorKernel,
    compose,
    conjugate_kernel,
    free_propagator,
    make_advanced,
    make_retarded,
    schrodinger_residual,
    solve_inhomogeneous,
    source_term,
)
from .scattering import (
    Hamiltonian,
    Potential,
    SMatrix,
    born_radius,
    born_wavefunction,
    conjugate_smatrix,
    full_green,
    gaussian_potential,
    lippmann_schwinger_solve,
    smatrix_momentum,
    unitarity_defect,
    variant_basis,
)
from .dyson import (
    EvolutionOperator,
    dyson_evolution,
    from_interaction_picture,
    interaction_coefficients,
    ode_evolution,
    smatrix_from_evolution,
    to_interaction_picture,
)

__version__ = "0.1.0"
