"""Exception types shared across the package."""

from __future__ import annotations


class SexticStrataError(Exception):
    """Base class for all package errors; `exit_code` is the CLI's exit
    code for it: 1 malformed input, 2 contract violation, 3 budget exceeded."""

    exit_code = 2


class FieldMismatchError(SexticStrataError):
    """Operands live over different base fields."""


class InvalidPresentationError(SexticStrataError):
    """Presentation fails the degree-grid contract."""

    exit_code = 1

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid presentation")


class NotSquareError(SexticStrataError):
    """An operation that needs a square presentation got a rectangular one."""


class NotInjectiveError(SexticStrataError):
    """The presentation matrix has vanishing determinant."""


def _hilbert_text(r: int, chi: int) -> str:
    """`r*m + chi` as written in the paper: 6m+1, 2m+1, m, 3m, 6m-9."""
    text = "m" if r == 1 else f"{r}m"
    return text if chi == 0 else f"{text}{chi:+d}"


class ProfileNotInTable(SexticStrataError):
    """Cohomological profile matches no stratum row, or the Hilbert
    polynomial is not 6m+1.

    Signals that the cokernel is not a semistable sheaf with the expected
    invariants, or an arithmetic bug upstream.  Carries the offending
    profile as a 4-tuple (h0(F(-1)), h1(F), h0(F otimes Omega^1(1)), h1(F(1)))
    and the Hilbert polynomial as `hilbert` = [r, chi]; the message names
    whichever of the two keeps the presentation out of the table.
    """

    def __init__(self, profile, hilbert):
        self.profile = tuple(profile)
        self.hilbert = list(hilbert)
        if self.hilbert == [6, 1]:
            message = f"profile {self.profile} matches no stratum row"
        else:
            message = (
                f"profile {self.profile} with Hilbert polynomial "
                f"{_hilbert_text(*self.hilbert)} is not in the table (needs 6m+1)"
            )
        super().__init__(message)


class NotSemistable(ProfileNotInTable):
    """Profile matches a stratum row, but the matrix fails that row's conditions.

    Raised only on the row's canonical twist shape, where the conditions
    are invariant under Aut(source) x Aut(target) and failing them means
    the cokernel is not semistable.  Carries the profile, the Hilbert
    polynomial (6m+1, checked before the row), and the violated conditions
    as `violations`.
    """

    def __init__(self, profile, violations):
        self.profile = tuple(profile)
        self.hilbert = [6, 1]
        self.violations = list(violations)
        SexticStrataError.__init__(
            self,
            f"profile {self.profile} is on a stratum row, but the cokernel is not "
            f"semistable: {'; '.join(self.violations)}",
        )


class WrongShapeError(SexticStrataError):
    """Operation applied to a presentation with the wrong twist shape."""


class MembershipFailure(SexticStrataError):
    """A form does not lie in the required ideal slice."""


class DivisibilityFailure(SexticStrataError):
    """A linear form divides (or fails to divide) where the contract forbids it."""


class RejectionBudgetExceeded(SexticStrataError):
    """Rejection sampling exhausted its budget.

    Carries the reject count and the violations of the last rejected draw.
    """

    exit_code = 3

    def __init__(self, rejects: int, last_violations):
        self.rejects = rejects
        self.last_violations = list(last_violations)
        super().__init__(
            f"rejection budget exhausted after {rejects} rejects; "
            f"last violations: {self.last_violations}"
        )


class BudgetExceededError(SexticStrataError):
    """A computation would exceed a configured work budget."""

    exit_code = 3
