"""Oscillator-Kepler duality toolkit.

A 16-D anisotropic / anharmonic oscillator built from two 8-D factors is
tied to 9-D generalized MICZ-Kepler systems through an octonionic
bilinear transformation.  The package provides the transformation, the
coordinate charts that separate both sides, closed-form spectra
(singular oscillator and quasi-exactly-solvable anharmonic families) and
independent eigensolvers (Galerkin bases for the fixed separated
equations and for the parabolic joint search) that verify every claim in
spherical and parabolic charts.
"""

from .algebra import build_gamma_set, hurwitz_forward, hurwitz_forward_batch
from .analytic import (
    DualPair,
    QesPrimedParams,
    QesSolution,
    QuantumNumbers,
    dual_map,
    dual_map_inverse,
    effective_lprime,
    kummer_1f1_terminating,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    qes_wavefunction,
    radial_wavefunction,
    singular_oscillator_energy,
)
from .coords import (
    Hyperspherical8,
    Parabolic9,
    Spherical9,
    cartesian9_to_parabolic,
    hyperspherical_to_cartesian8,
    parabolic_to_cartesian9,
    spherical9_to_cartesian,
)
from .errors import (
    AccuracyError,
    BracketError,
    ConfigError,
    HurwitzKeplerError,
    QesClosureError,
    QesPreconditionError,
    SeparabilityError,
)
from .numeric import (
    Grid,
    JointState,
    RadialProblem,
    Spectrum,
    build_radial_problem,
    fd_eigensolve,
    parabolic_joint_solve,
    qes_verification_problem,
    spherical_micz_energies,
)
from .potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    eval_potential,
    is_spherically_separable,
    micz_centrifugal_strengths,
    model_number,
    parabolic_W,
    spherical_W,
)

__version__ = "0.1.0"
