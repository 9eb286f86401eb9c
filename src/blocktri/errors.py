"""Exception types shared across the package."""


class BlockTriError(Exception):
    """Base class for all errors raised by this package."""


class MismatchedDimension(BlockTriError):
    """Operands have incompatible shapes."""


class NotFinite(BlockTriError):
    """A matrix contains NaN or infinite entries."""


class Singular(BlockTriError):
    """A pivot fell below the singularity threshold during elimination."""


class IllConditioned(BlockTriError):
    """Estimated condition number exceeds the trust bound."""


class NoConvergence(BlockTriError):
    """LAPACK reported that an iteration did not converge, or ``schur`` left a
    strict lower triangle above its bound."""


class RepeatedEigenvalues(BlockTriError):
    """Eigenvalues are closer than the distinctness gap policy allows."""


class ConstraintViolated(BlockTriError):
    """The input does not commute with the requested diagonal unit."""


class NotIdempotent(BlockTriError):
    """The matrix is not idempotent within tolerance."""


class NotRankOne(BlockTriError):
    """The matrix is not numerically rank one."""


class NotTriangular(BlockTriError):
    """The matrix is not upper-triangular within tolerance."""


class WrongAlgebra(BlockTriError):
    """A matrix does not belong to the required block algebra."""


class NotJordanEmbedding(BlockTriError):
    """Recovery found no form X -> T X T^{-1} or X -> T X^t T^{-1} that matches the map."""


class InvalidDocument(BlockTriError):
    """A JSON document does not match its schema."""
