"""Exception types shared across the package."""


class BrickforgeError(Exception):
    """Base class for all package errors."""


class DomainError(BrickforgeError):
    """Two curves (or a curve and an operation) live on different domains,
    or the bricks present at a level do not fit there."""


class CertificateError(BrickforgeError):
    """A distance certificate does not cover the vertices it is asked about."""


class BudgetExceeded(BrickforgeError):
    """A construction needed a curve outside the enumeration budget."""


class NotAscending(BrickforgeError):
    """A sequence of brick complexes is not ascending."""


class NonStabilizing(BrickforgeError):
    """A brick's embedding kept changing past its reported stabilization index."""


class MissingLabel(BrickforgeError):
    """A half-open brick has no end label."""


class NoTightGeodesic(BrickforgeError):
    """No tight geodesic could be certified within the enumeration budget."""


class ELViolation(BrickforgeError):
    """Two simply degenerate bricks carry homotopic ending laminations."""


class NotTorusInterface(BrickforgeError):
    """The tube meets the base part along an annulus, not a torus."""


class ObstructionSearchFailure(BrickforgeError):
    """No finite obstructor set was found within the enumeration bound."""


class ParseError(BrickforgeError):
    """A document failed to parse against the schema."""
