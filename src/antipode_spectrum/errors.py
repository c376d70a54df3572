"""Exception hierarchy shared by all modules."""


class SpectrumError(Exception):
    """Base class for every error raised by this package.  Each concrete
    error derives from exactly one of InputError and DataError."""


class InputError(SpectrumError):
    """The input is malformed or does not meet a precondition: a bad literal,
    document, option or candidate.  The command line exits with code 2."""


class DataError(SpectrumError):
    """Well-formed input whose data fails a mathematical condition, such as an
    absent dimension character.  The command line exits with code 1."""


# -- scalar backends ---------------------------------------------------------

class FieldMismatch(InputError):
    """Operands live in different cyclotomic fields or factored contexts."""


class DivisionByZero(InputError):
    pass


class NotFactorable(InputError):
    """Expression cannot be written as constant * monomial * product of
    (L_alpha * z^a - z^-a) atoms."""


class NotNumeric(InputError):
    """A symbolic value that depends on the torus parameters has no single
    complex value; evaluate it at a torus point first."""


# -- grothendieck / modcat ---------------------------------------------------

class ZeroGlobalDimension(DataError):
    pass


class DimensionMismatch(InputError):
    pass


class NotInvertibleClass(DataError):
    pass


class MissingDims(InputError):
    pass


class VerificationFailed(DataError):
    """Fusion or module data of a document fails its axiom checks; the
    message holds both reports."""


# -- spectrum ----------------------------------------------------------------

class EmptyEigenspace(DataError):
    pass


class AmbiguousM(InputError):
    """Dimension character has multiplicity > 1 and no candidate was given."""


class ZeroEntry(InputError):
    """Candidate m-vector has a vanishing coordinate."""


class NotInEigenspace(InputError):
    pass


class JDependence(DataError):
    """The m-bar vector computed from different columns of Q_M disagrees."""


class InvalidTwist(InputError):
    pass


# -- pivotalization ----------------------------------------------------------

class SignSplitMismatch(DataError):
    """N+ and N- do not sum to the unsigned action matrices."""


class NonRealSigns(DataError):
    pass


class NumericOverflow(DataError):
    """A numeric eigenvalue left the float range (inf or nan), or a total
    degree could leave int64."""


# -- families ----------------------------------------------------------------

class BadParameters(InputError):
    pass


class NotACharacter(InputError):
    pass


class NotASubgroup(InputError):
    pass


# -- cli ---------------------------------------------------------------------

class ParseError(InputError):
    """Bad scalar literal or malformed spec document.

    ``location`` is a human-readable position (offset in a literal, or a
    JSON path in a spec file).
    """

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class SchemaError(ParseError):
    pass
