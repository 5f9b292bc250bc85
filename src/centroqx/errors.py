"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
generic misuse (wrong shapes, non-finite input) raises plain ``ValueError``.
"""


class CentroQxError(Exception):
    """Base class for package-specific failures."""


class RankDeficient(CentroQxError):
    """A QR pivot column norm fell below the rank tolerance."""


class NoConvergence(CentroQxError):
    """Power iteration hit its iteration cap before the tolerance was met."""


class SingularTriangular(CentroQxError):
    """A triangular solve met a diagonal pivot below the pivot tolerance."""


class NotCentrosymmetric(CentroQxError):
    """Input violates the double-flip symmetry beyond tolerance."""


class OddDimension(CentroQxError):
    """A structured-square operation needs an even dimension."""


class OddColumnDimension(OddDimension):
    """The factorization needs an even number of columns."""


class ZeroRow(CentroQxError):
    """A scaling candidate would contain a (near-)zero diagonal entry."""


class SizeCapExceeded(CentroQxError):
    """Dense first-order operators were requested above the size cap."""


class MatrixFormatError(CentroQxError, ValueError):
    """A matrix text file does not follow the documented format."""
