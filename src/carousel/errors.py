"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric failures."""


class EmptyInput(GeometryError):
    """An operation that needs at least one point received none."""


class ModeMixError(GeometryError):
    """Exact and float arithmetic were mixed inside one computation."""


class InvalidPolygon(GeometryError):
    """Vertex list violates the strict-convexity / orientation contract."""


class InvalidBody(GeometryError):
    """Body parameters out of range (non-positive radius, a < b, ...)."""


class ExpansionTooWide(GeometryError):
    """Sector expansion angles exceed the available normal gap."""


class ContactOutsideContainer(GeometryError):
    """A supporting-line contact point does not lie in the container."""


class SceneInvariantError(GeometryError):
    """Scene violates its invariants (body outside container, n < 3, ...)."""


class CommonLineCountTooLarge(GeometryError):
    """Constructive checker precondition s < n does not hold."""


class ConstructiveSearchFailed(GeometryError):
    """No adjacent pair yielded a witness; internal inconsistency."""


class RejectionLimitExceeded(GeometryError):
    """A rejection-sampling generator gave up."""


class OddVertexCount(GeometryError):
    """The sharpness family is defined for even vertex counts only."""
