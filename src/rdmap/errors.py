"""Exception types raised across the package.

Validation errors flag inputs that violate a stated invariant and carry the
measured residual in their message.  Certification errors flag maps that
fail the idempotency/unitality requirements.  The CLI maps these onto its
exit-code contract (2 for validation, 3 for certification).
"""


class RdmapError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RdmapError):
    """An input violates one of its declared invariants."""


class CertificationError(RdmapError):
    """A channel fails the resource-destroying-map requirements."""


class NonHermitian(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class BadRank(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotFineGrained(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class NotAGroup(ValidationError):
    pass


class NotIdempotent(CertificationError):
    pass


class NotUnital(CertificationError):
    pass


class InfiniteValue(RdmapError):
    """Both sides of an identity must be finite but at least one is +inf."""


class NoFiniteObjective(RdmapError):
    """The oracle's best point, mapped through E, scores +inf: a >= 1 and its
    image misses the support of rho.  For a certified map the best point is
    its own image up to round-off, so this flags a map that skipped
    certification or a search that found no finite value."""
