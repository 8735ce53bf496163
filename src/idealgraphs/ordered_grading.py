"""Leading parts for integer-graded carriers.

Over the integers the support is finite and totally ordered, so every
nonzero element has a leading homogeneous part: the piece of highest degree.
Sending a left ideal to the ideal generated by the leading parts of its
members gives a graded companion I~ that fixes exactly the graded ideals,
preserves zero and containment, and separates nested distinct ideals.  The
checks lemma_ll, t543, t544 and r545 in theorem_suite test these laws and
compare the graded graph with the full-lattice graph through that map.
"""

from __future__ import annotations

from .errors import NotIntegerGraded
from .grading import Grading
from .ideal_lattice import generated_left_ideal
from .ring_core import mask_members


def _require_integers(grading: Grading) -> None:
    if grading.grades.kind != "integers":
        raise NotIntegerGraded("leading parts need an integer-graded carrier")


def leading_part(grading: Grading, x: int) -> int:
    """Highest-degree homogeneous part of a nonzero element."""
    _require_integers(grading)
    parts = grading.decomposition[x]
    return parts[-1][1]


def leading_ideal(grading: Grading, mask: int) -> int:
    """Mask of the left ideal generated by the leading parts of the nonzero
    members of `mask`."""
    _require_integers(grading)
    ring = grading.ring
    leads = [leading_part(grading, x) for x in mask_members(mask) if x != ring.zero]
    return generated_left_ideal(ring, leads)
