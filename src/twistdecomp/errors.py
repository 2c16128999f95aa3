"""Exception types shared across the package."""


class TwistError(Exception):
    """Base class for all twistdecomp errors."""


class InputError(TwistError):
    """Invalid user-supplied data: files, specs, tables, preconditions."""


class NotAssociative(InputError):
    """Multiplication table fails associativity; message names the first bad triple."""


class NoIdentity(InputError):
    """Multiplication table has no two-sided identity."""


class NoInverse(InputError):
    """Some element has no two-sided inverse; message names it."""


class NotLatinSquare(InputError):
    """Some row or column of a multiplication table repeats an entry."""


class NotAPermutation(InputError):
    """A generator is not a permutation of {0..degree-1}."""


class ClosureTooLarge(InputError):
    """Permutation closure exceeded the configured element cap."""


class NotNormal(InputError):
    """The given subgroup is not normal in its parent."""


class OddN(InputError):
    """dihedral_alpha requires an even n (the class is trivial for odd n)."""


class InvalidCocycle(InputError):
    """A cocycle table violates normalization or the 2-cocycle identity."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotEquivariant(InputError):
    """A map of G-sets does not commute with the group action."""


class ANotTrivial(InputError):
    """The designated normal subgroup does not act trivially on the G-set."""


class UnknownSuite(InputError):
    """verify was asked for a suite name that does not exist."""


class ParseError(InputError):
    """A text input file or spec string could not be parsed."""


class NotIrreducible(InputError):
    """intertwiner was called on a representation with commutant dimension > 1."""


class NumericFailure(TwistError):
    """Internal numerical breakdown."""


class SplitFailure(NumericFailure):
    """Randomized eigenspace splitting failed repeatedly (degenerate draws)."""


class NonIntegerMultiplicity(NumericFailure):
    """A character inner product was not close to an integer.

    Usually signals mismatched cocycle tables or broken representations.
    value holds the offending inner product, when the raiser knows it.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class AmbiguousCharacter(NumericFailure):
    """A character decomposed over several table entries where one was expected."""


class DecompositionFailure(TwistError):
    """An assertion inside the decomposition pipeline failed."""


class UnmatchedCharacter(DecompositionFailure):
    """act(g, tau) matched no entry of a supposedly complete table."""


class NotScalar(DecompositionFailure):
    """The induced-cocycle matrix deviates from a scalar matrix."""


class NotUnimodular(DecompositionFailure):
    """An extracted cocycle scalar is not on the unit circle."""


class NotIsotypic(DecompositionFailure):
    """hom_rep input has zero component on the orbit representative."""


class OrbitMixing(DecompositionFailure):
    """Some irreducible restricts across more than one orbit, or unevenly."""


class MatchFailure(DecompositionFailure):
    """A Hom representation matched no class in the computed table."""


class RankMismatch(TwistError):
    """The two sides of a K-group rank comparison disagree."""
