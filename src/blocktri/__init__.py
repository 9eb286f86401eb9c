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
    random_element,
)
from .canonical import (
    IdempotentForm,
    InAlgebraDiagonalization,
    diagonalize_in_algebra,
    triangular_idempotent_form,
)
from .errors import (
    BlockTriError,
    ConstraintViolated,
    IllConditioned,
    InvalidDocument,
    MismatchedDimension,
    NoConvergence,
    NotFinite,
    NotIdempotent,
    NotJordanEmbedding,
    NotRankOne,
    NotTriangular,
    RepeatedEigenvalues,
    Singular,
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
    spectral_norm,
)
from .maps import (
    AlgebraMap,
    CheckResult,
    JordanForm,
    Orientation,
    algebra_map_from_function,
    apply,
    apply_batch,
    build_form_map,
    form_residual,
    is_jordan,
    recover_form,
)
from .preservers import (
    PreserverReport,
    check_char_poly_preserving,
    check_commutativity_preserving,
    check_multiplicity_preserving,
    check_spectrum_shrinking,
    full_report,
)

from types import ModuleType as _ModuleType

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
