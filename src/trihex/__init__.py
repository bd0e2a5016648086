"""Trihex tilings of benzels on the hexagonal grid.

Exact Eisenstein-lattice geometry, benzel and triangle regions, boundary
words, the Conway-Lagarias invariant via shadow paths, stone/bone tiling
enumeration and counting, and the explicit bone tiling of pentagonal-pair
benzels.
"""

from .errors import (
    ConstructionFailed,
    EmptyRegion,
    FormatError,
    InvalidParams,
    InvalidPlacement,
    InvalidTiling,
    NonIntegralArea,
    NonIsolatedSpur,
    NotACellCenter,
    NotClosed,
    NotSimplyConnected,
    ResourceLimit,
    ShadowNotClosed,
    TrihexError,
)
from .hexlattice import LatticePoint, Step, rotate120, signed_area, winding_numbers
from .regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_cycle,
    boundary_word_closed_form,
    despur,
    find_spurs,
    region_from_json,
    region_to_json,
    trace_boundary,
    triangle,
    word_from_text,
    word_to_text,
)
from .shadow import (
    ALL_SEEDS,
    DEFAULT_SEED,
    area_formula,
    cl_invariant_formula,
    cl_invariant_path,
    is_pentagonal_pair,
    shadow_word,
)
from .tilings import (
    BONES,
    KIND_BY_NAME,
    STONES_AND_BONES,
    Placement,
    TileKind,
    Tiling,
    count_tilings,
    enumerate_tilings,
    orientation_histogram,
    placement_frequency,
    placements,
    stone_balance,
    tiling_from_json,
    tiling_to_json,
    validate,
)
from .pentagonal import construct_tiling, pentagonal_benzel
from .render import RenderSpec, render_svg

__version__ = "0.1.0"
