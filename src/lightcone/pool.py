"""Velocity-limited synchronization pools.

How far apart can two elements sit and still drive each other within one
oscillation period? At signal velocity v and frequency f the answer is
d = v/f, and a planar patch of that diameter holds (d/w)^2 elements of
width w. These few relations set the ceiling on how much hardware a
single oscillation can bind together.
"""
from __future__ import annotations

from dataclasses import dataclass

from .constants import VELOCITY_CEILING
from .errors import check_integer, check_number, finite_result

__all__ = [
    "Platform",
    "pool_diameter",
    "pool_population",
    "pool_area",
    "pool_ratio",
    "max_frequency",
    "is_integrable",
]

_ELEMENT_KINDS = ("neuron", "synapse")


@dataclass(frozen=True)
class Platform:
    """A communication medium paired with an element size.

    ``signal_velocity`` in m/s, capped at light speed (the cap admits the
    conventional rounded value 3e8); ``element_width`` in m;
    ``element_kind`` says whether the width refers to a whole neuron or a
    single synapse, which matters when comparing platforms.
    """

    signal_velocity: float
    element_width: float
    element_kind: str = "neuron"

    def __post_init__(self):
        check_number("signal_velocity", self.signal_velocity,
                     gt=0.0, le=VELOCITY_CEILING)
        check_number("element_width", self.element_width, gt=0.0)
        if self.element_kind not in _ELEMENT_KINDS:
            raise ValueError(
                f"element_kind must be one of {_ELEMENT_KINDS}, "
                f"got {self.element_kind!r}"
            )


@finite_result
def pool_diameter(platform: Platform, frequency: float) -> float:
    """Maximum pairwise separation integrable at ``frequency``: d = v/f.

    The limit is one-way: a pulse must reach its target within one
    period; no reply is required.
    """
    check_number("frequency", frequency, gt=0.0)
    return platform.signal_velocity / frequency


@finite_result
def pool_population(platform: Platform, frequency: float,
                    dimension: int = 2) -> float:
    """Number of elements in the pool: (d / element_width) ** dimension.

    Computed through :func:`pool_diameter` so the compositional identity
    population == (diameter/width)**n holds bit-exactly.
    """
    check_integer("dimension", dimension, ge=1, le=3)
    d = pool_diameter(platform, frequency)
    return (d / platform.element_width) ** dimension


@finite_result
def pool_area(platform: Platform, frequency: float) -> float:
    """Planar pool area under the square convention: area = d**2."""
    d = pool_diameter(platform, frequency)
    return d * d


@finite_result
def pool_ratio(photonic: Platform, biological: Platform,
               dimension: int = 2) -> float:
    """Pool population ratio between two platforms of the same element kind.

    (v_a * w_b / (w_a * v_b)) ** n; frequency cancels. Mixing element
    kinds (synapse-sized vs neuron-sized widths) is rejected because the
    ratio is only meaningful like for like.
    """
    check_integer("dimension", dimension, ge=1, le=3)
    if photonic.element_kind != biological.element_kind:
        raise ValueError(
            f"element_kind mismatch: {photonic.element_kind!r} vs "
            f"{biological.element_kind!r}"
        )
    return ((photonic.signal_velocity * biological.element_width)
            / (photonic.element_width * biological.signal_velocity)
            ) ** dimension


@finite_result
def max_frequency(platform: Platform, extent: float) -> float:
    """Highest frequency whose pool still spans ``extent``: f = v/extent."""
    check_number("extent", extent, gt=0.0)
    return platform.signal_velocity / extent


def is_integrable(platform: Platform, separation: float,
                  frequency: float) -> bool:
    """True when two elements ``separation`` apart can interact within 1/f.

    The boundary separation == v/f counts as integrable. Evaluated
    against :func:`pool_diameter` so saturation is exact in floating
    point; inverting through :func:`max_frequency` is exact only to
    rounding.
    """
    check_number("separation", separation, gt=0.0)
    return separation <= pool_diameter(platform, frequency)
