"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
generic misuse (wrong shapes, non-finite input) raises plain ``ValueError``.
"""


class CentroQxError(Exception):
    """Base class for package-specific failures."""


class RankDeficient(CentroQxError):
    """A QR pivot column norm fell below the rank tolerance."""


class NoConvergence(CentroQxError):
    """An iterative norm reached its step cap before its stopping test held.

    ``estimate`` is its last estimate of the norm at the scale of the input
    (the square root of the top Ritz value, in exact arithmetic a lower
    bound) and ``steps`` the number of steps it took.
    """

    def __init__(self, estimate: float, steps: int) -> None:
        super().__init__(estimate, steps)
        self.estimate = estimate
        self.steps = steps

    def __str__(self) -> str:
        return (
            f"the norm iteration did not settle within {self.steps} steps"
            f" (last estimate {self.estimate:.17g})"
        )


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
