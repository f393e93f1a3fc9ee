"""Domain errors shared across the package."""


class CuspidorError(Exception):
    """Base class for all domain errors; the CLI maps these to exit code 1."""


class InvalidAction(CuspidorError):
    pass


class InvalidLattice(CuspidorError):
    pass


class Reducible(CuspidorError):
    pass


class NotCommuting(CuspidorError):
    pass


class TrivialCharacter(CuspidorError):
    pass


class InvalidOrder(CuspidorError):
    pass


class NotStabilizing(CuspidorError):
    pass


class SingularCharacter(CuspidorError):
    pass


class SingularRoot(CuspidorError):
    pass


class NotRealizable(CuspidorError):
    pass


class NotNormal(CuspidorError):
    pass


class UnequalStabilizers(CuspidorError):
    pass


class NotEquivariant(CuspidorError):
    pass


class TooLarge(CuspidorError):
    pass


class InvalidCycleType(CuspidorError):
    pass


class InvalidWeylSet(CuspidorError):
    pass


# Invalid inputs that the library used to reject with a bare ValueError.
# They stay ValueErrors too, so callers that catch ValueError still do.

class InvalidPrimePower(CuspidorError, ValueError):
    pass


class InvalidCharacter(CuspidorError, ValueError):
    pass


class InvalidWeylElement(CuspidorError, ValueError):
    pass


class InvalidPoint(CuspidorError, ValueError):
    """A torus point with the wrong coordinate count, or not in S(k)."""


class InvalidDegree(CuspidorError, ValueError):
    """An extension degree d < 1, so k_d is not a field extension."""


class InvalidFixture(CuspidorError, ValueError):
    """A fixture path that cannot be read, parsed or validated."""


class FailedCheck(CuspidorError, ArithmeticError):
    """A self-check of a computed result failed; also an ArithmeticError."""


class NotInOrbit(CuspidorError, ValueError):
    """A root passed as an orbit representative that is not in the orbit."""


class InvalidCyclotomic(CuspidorError, ValueError):
    """A cyclotomic operation outside its domain: a conductor below 1, a
    coefficient vector of the wrong length, a promotion to a conductor that
    is not a multiple, a division by or a rational value of an irrational
    element, or a Galois exponent not prime to the conductor."""
