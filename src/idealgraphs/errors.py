"""Typed errors raised by construction, validation, and analysis code.

Every failure mode that callers may want to catch has its own class; all of
them derive from AlgebraError so a bare `except AlgebraError` catches any
domain-level problem while letting genuine bugs (TypeError etc.) propagate.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all domain errors in this package."""


class InvalidConstruction(AlgebraError):
    """Raw tables fail a ring/group/module axiom (associativity, unity, ...)."""


class SizeLimit(AlgebraError):
    """A construction would exceed the configured maximum carrier size."""


class NotASubring(AlgebraError):
    """A subset is not closed under the operations required of a subring."""


class NotSubgroup(AlgebraError):
    """A subset is not an additive subgroup."""


class NotDirectSum(AlgebraError):
    """Components fail to decompose the ring additively as a direct sum."""


class ProductEscapes(AlgebraError):
    """Some product R_sigma * R_tau lands outside R_{sigma*tau}."""


class UnityNotInIdentityComponent(AlgebraError):
    """The multiplicative unity is not homogeneous of the identity degree."""


class WrongConstruction(AlgebraError):
    """A canonical grading was requested for a ring built another way."""


class IdealCountLimit(AlgebraError):
    """Ideal enumeration exceeded the configured maximum family size."""


class UngradedIdeal(AlgebraError):
    """An ideal generated by homogeneous elements failed the graded test."""


class GraphTooLarge(AlgebraError):
    """An exact graph invariant was requested above the configured order cap."""


class NotEFaithful(AlgebraError):
    """An operation requiring e-faithfulness was applied to a grading without it."""


class WellDefinednessViolation(AlgebraError):
    """A quotient construction gave inconsistent answers across representatives."""


class IsoViolation(AlgebraError):
    """A claimed graph isomorphism failed; carries a concrete witness."""


class NotIntegerGraded(AlgebraError):
    """An order-sensitive operation was applied to a non-integer grading."""


class UnknownTheorem(AlgebraError):
    """A check id not present in the registry was requested, or none was."""


class WrongInstanceKind(AlgebraError):
    """A check was requested on an instance outside its hypothesis class."""


class SchemaError(AlgebraError):
    """An instance description file does not match the expected JSON shape."""


class UnknownConstructor(AlgebraError):
    """An instance description names a ring or grading kind that does not exist."""
