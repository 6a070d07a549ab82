"""Grid-domain laboratory for Laplace eigenfunctions and Brownian paths.

Four pieces: grid domains with labeled walls (`geometry`), sparse Laplacian
eigensolves and heat semigroups on them (`spectral`), the ball first-exit
function and its bounds (`theta`), and killed/reflected path simulation
(`brownian`).  Each of these names is the submodule; the ball-exit
function itself is `eigenwalk.theta.theta`.

Refusals follow one rule.  An argument out of range (k, t, eta, a bc_mode
name, an f0 or field array) raises ValueError.  A built object that does
not fit the call raises its module's error, one of the package's three
exception classes: DomainError for a spec that cannot be realized,
SpectralError for a result under the wrong condition or a solve that
fails its certificate, BrownianError for walls other than the result's.
"""

from eigenwalk.geometry import (
    DomainError,
    DomainSpec,
    GridDomain,
    build_domain,
    extract_level_set,
    set_distance,
)
from eigenwalk.spectral import (
    SpectralError,
    SpectralResult,
    assemble_laplacian,
    heat_semigroup,
    solve_eigs,
    survival_profile,
    zeta_bound,
)
from eigenwalk.theta import ThetaValue, bessel_zeros, theta_inverse

__all__ = [
    "DomainError",
    "DomainSpec",
    "GridDomain",
    "SpectralError",
    "SpectralResult",
    "ThetaValue",
    "assemble_laplacian",
    "bessel_zeros",
    "build_domain",
    "extract_level_set",
    "heat_semigroup",
    "set_distance",
    "solve_eigs",
    "survival_profile",
    "theta_inverse",
    "zeta_bound",
]

__version__ = "0.1.0"
