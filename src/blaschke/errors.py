"""Exception types shared across the toolkit.

Every failure that callers are expected to catch derives from BlaschkeError.
Exceptions carry a witness where one exists (the offending point, pair, or
residual) so tests and the CLI can report something concrete.  Each class
also carries the CLI's exit code and stderr prefix for it: 2 "input error"
for bad or unusable input, 4 "verification failure" when a computed object
fails its check, and 3 "solver failure" for everything else.
"""

from __future__ import annotations


class BlaschkeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3
    label = "solver failure"


class InputError(BlaschkeError):
    """Malformed or out-of-contract input (bad JSON, invalid degrees, ...)."""

    exit_code = 2
    label = "input error"


class DegenerateInput(InputError):
    """Input is structurally unusable for the requested operation."""


class PoleProximity(BlaschkeError):
    """Evaluation point is too close to a pole of the product."""

    def __init__(self, z, denominator):
        self.z = z
        self.denominator = denominator
        super().__init__(
            f"evaluation at {z} hits a denominator of modulus {abs(denominator):.3e}"
        )


class SolverFailure(BlaschkeError):
    """An iterative solver did not reach its tolerance."""


class CountMismatch(BlaschkeError):
    """A count invariant failed (e.g. wrong number of critical points)."""

    def __init__(self, expected, found, what="items"):
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected} {what}, found {found}")


class VerificationFailure(BlaschkeError):
    """A reconstructed object failed its residual check against the input."""

    exit_code = 4
    label = "verification failure"


class EigensolverFailure(BlaschkeError):
    """The Hermitian eigensolver did not converge."""


class GeometryFailure(BlaschkeError):
    """Loop or chord geometry cannot be built (merged points, no clearance)."""

    exit_code = 2
    label = "input error"


class TrackingFailure(BlaschkeError):
    """Analytic continuation failed: the corrector missed its tolerance."""


class NonBijective(BlaschkeError):
    """Branch continuation produced a non-bijective endpoint assignment."""

    exit_code = 4
    label = "verification failure"
