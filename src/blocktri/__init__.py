"""Block upper-triangular matrix algebras and their Jordan embeddings.

The toolkit covers desk-scale complex linear algebra, block-algebra
combinatorics with the secondary-diagonal flip, in-algebra canonical forms,
construction and recovery of the two standard similarity forms of linear
maps, preserver-property checkers, and an executable counterexample gallery.
"""

from .algebra import (
    BlockAlgebra,
    Composition,
    Embedding,
    JordanIsoClass,
    block_algebra,
    embeds,
    flip,
    flip_algebra,
    jordan_iso_class,
    matrix_poly,
    matrix_units,
    membership,
    parse_composition,
    project,
    random_commuting_pair,
    random_element,
)
from .canonical import (
    IdempotentForm,
    InAlgebraDiagonalization,
    diagonalize_in_algebra,
    shear,
    shear_conjugate_unit,
    triangular_idempotent_form,
)
from .errors import (
    BlockTriError,
    ConstraintViolated,
    Degenerate,
    IllConditioned,
    InvalidDocument,
    MismatchedDimension,
    NoConvergence,
    NonzeroFirstComponent,
    NotFinite,
    NotIdempotent,
    NotJordanEmbedding,
    NotRankOne,
    NotTriangular,
    RepeatedEigenvalues,
    Singular,
    SpectraOverlap,
    WrongAlgebra,
)
from .gallery import (
    GALLERY,
    CounterexampleSpec,
    block_projection,
    det_twist,
    eigen_swap,
    mobius_contraction,
    run_gallery_suite,
)
from .linalg import (
    SchurForm,
    char_poly,
    eigenvalues,
    inverse,
    schur,
    solve_sylvester_diagonal,
    spectral_norm,
)
from .maps import (
    AlgebraMap,
    JordanCheck,
    JordanForm,
    Orientation,
    algebra_map_from_function,
    apply,
    apply_batch,
    build_form_map,
    evaluate_form,
    is_jordan,
    orientation_feasible,
    recover_form,
)
from .preservers import (
    CheckResult,
    PreserverReport,
    check_char_poly_preserving,
    check_commutativity_preserving,
    check_multiplicity_preserving,
    check_spectrum_shrinking,
    full_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
