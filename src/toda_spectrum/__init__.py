"""Mass spectra of two-dimensional affine Toda lattices for the simple Lie algebras.

Two independent routes produce the spectrum: the Perron-Frobenius eigenvector
of the Dynkin adjacency matrix, and the eigenvalues of the root-built mass
matrix. For E8 the package additionally verifies a suite of exact identities:
characteristic polynomials, the quartic factorisation, golden-ratio mass
ratios, and nested-radical closed forms.
"""

from .exact_poly import (
    RationalMatrix,
    RationalPolynomial,
    char_poly_exact,
    poly_divide_exact,
    refine_real_roots,
)
from .masses import (
    GOLDEN_RATIO,
    AdjacencyEigenvalues,
    ConsistencyError,
    MassMethod,
    NormalizationInfo,
    Spectrum,
    adjacency_eigen,
    mass_char_poly,
    mass_matrix,
    mass_ratio_spread,
    perron_components,
    spectrum_method1,
    spectrum_method2,
)
from .radicals import NegativeRadicandError, eval_radical, radical_identity_suite
from .report import CheckReport, CheckResult
from .root_systems import (
    AlgebraId,
    CartanMatrix,
    InvalidAlgebraError,
    RootSystem,
    cartan_matrix,
    dynkin_adjacency,
    embed_roots,
    generate_roots,
    root_system,
)
from .spectral import (
    EigenDecomposition,
    PerronVector,
    jacobi_eigen,
    perron_vector,
    recover_exponents,
    symmetric_eigenvalues,
)
from .verify import E8

__version__ = "0.1.0"

__all__ = [
    "AdjacencyEigenvalues",
    "AlgebraId",
    "CartanMatrix",
    "CheckReport",
    "CheckResult",
    "ConsistencyError",
    "E8",
    "EigenDecomposition",
    "GOLDEN_RATIO",
    "InvalidAlgebraError",
    "MassMethod",
    "NegativeRadicandError",
    "NormalizationInfo",
    "PerronVector",
    "RationalMatrix",
    "RationalPolynomial",
    "RootSystem",
    "Spectrum",
    "adjacency_eigen",
    "cartan_matrix",
    "char_poly_exact",
    "dynkin_adjacency",
    "embed_roots",
    "eval_radical",
    "generate_roots",
    "jacobi_eigen",
    "mass_char_poly",
    "mass_matrix",
    "mass_ratio_spread",
    "perron_components",
    "perron_vector",
    "poly_divide_exact",
    "radical_identity_suite",
    "recover_exponents",
    "refine_real_roots",
    "root_system",
    "spectrum_method1",
    "spectrum_method2",
    "symmetric_eigenvalues",
]
