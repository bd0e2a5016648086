"""Exception types shared across the package."""


class TrihexError(Exception):
    """Base class for all errors raised by this package."""


class NotClosed(TrihexError):
    """A word whose step vectors do not sum to zero was given where a closed
    word is required."""


class NonIntegralArea(TrihexError):
    """The Gauss double sum was not divisible by 6; the path is not a walk on
    the hexagon graph."""


class NotACellCenter(TrihexError):
    """A lattice point of class other than -1 was given as a cell center."""


class InvalidParams(TrihexError):
    """Benzel or construction parameters outside their allowed range."""


class EmptyRegion(TrihexError):
    """An operation requiring a nonempty region got an empty one."""


class NotSimplyConnected(TrihexError):
    """The boundary of a set of cells is not one closed curve: the cells
    lie in several edge-connected pieces (reported as such even when there
    are holes too), they surround a hole, or, for centers of mixed classes,
    the boundary pinches at a vertex."""


class NonIsolatedSpur(TrihexError):
    """Two spurs in a word overlap or touch, so spur removal is ambiguous."""


class ShadowNotClosed(TrihexError):
    """The constructed shadow path failed to close up; the input was not a
    valid hexagon-graph boundary word."""


class InvalidTiling(TrihexError):
    """A tiling whose placements do not partition its region."""


class InvalidPlacement(TrihexError):
    """A placement whose cells are not contained in the region at hand."""


class ResourceLimit(TrihexError):
    """The counting engine's live states outgrew its memory cap.  Deliberately
    distinct from a genuine zero count; the message says where the sweep
    stopped."""


class ConstructionFailed(TrihexError):
    """The sector construction met a cell run whose length is not divisible
    by 3 (indicates a bug, not bad input)."""


class FormatError(TrihexError):
    """A region, word, or tiling file failed to parse."""
