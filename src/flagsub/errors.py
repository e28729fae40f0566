"""Exception types shared across the package."""


class FlagsubError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertex(FlagsubError):
    """A generator or face mentions a name outside the ground set."""


class GroundSetOverlap(FlagsubError):
    """Simplicial join requested on complexes with shared vertex names."""


class NotAFace(FlagsubError):
    """The given vertex set is not a face of the complex."""


class VertexCollision(FlagsubError):
    """A new vertex name collides with an existing label."""


class InteriorNotSubset(FlagsubError):
    """Interior face set is not contained in the complex."""


class InvalidCarrier(FlagsubError):
    """Carrier map violates a structural invariant (monotonicity,
    dimension growth, surjectivity or totality)."""


class BaseNotSimplex(FlagsubError):
    """Operation requires the base complex to be a full simplex."""


class BaseMismatch(FlagsubError):
    """Composition requires the inner base to equal the outer total."""


class CarrierMismatch(FlagsubError):
    """Link operation requires a common face fixed by the carrier map."""


class NotHomologySubdivision(FlagsubError):
    """Input failed homology-subdivision validation."""


class NotFlag(FlagsubError):
    """Input complex is not flag."""


class NotASphere(FlagsubError):
    """Input complex failed homology-sphere certification."""


class NotAFacet(FlagsubError):
    """Chosen face is not a facet of the complex."""


class UnknownFixture(FlagsubError):
    """No bundled example with the given name."""


class MalformedInstance(FlagsubError):
    """Input document or suite instance does not match its schema."""
