"""Grid-domain laboratory for Laplace eigenfunctions and Brownian paths.

Four pieces: grid domains with labeled walls (`geometry`), sparse Laplacian
eigensolves and heat semigroups on them (`spectral`), the ball first-exit
function and its bounds (`theta`), and killed/reflected path simulation
(`brownian`).  Each of these names is the submodule; the ball-exit
function itself is `eigenwalk.theta.theta`.

Refusals follow one rule, without exceptions.  A bad argument raises
ValueError before any work: a start point, time grid, bc_mode name, f0
or field array, or a number out of range (one check reads every number:
t >= 0, 0 < eta <= 1, nu >= -1/2, seeds >= 0, p in (0, 1), the rest
> 0).  A built object that does not fit the call, or an estimate that
fails its own check, raises one of the three exception classes:
DomainError (a ValueError) for a spec or spacing that cannot be
realized, SpectralError for a result under the wrong condition or a
failed certificate, BrownianError for walls other than the result's.
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
