"""Exception types shared across the toolkit."""


class SkewBrauerError(Exception):
    """Base class for all domain errors."""


class NotAdmissible(SkewBrauerError):
    """Raised when a basis computation is attempted on a non-admissible presentation."""


class InfiniteDimensional(SkewBrauerError):
    """Raised when the algebra is infinite dimensional.

    ``witness`` is a cycle, a closed ``Path``, whose every power is
    tip-free and so nonzero; ``label`` is its name in the quiver.
    """

    def __init__(self, witness, label: str):
        super().__init__(
            f"infinite dimensional: every power of the cycle {label} is nonzero")
        self.witness = witness


class Undecided(SkewBrauerError):
    """Raised when the rewriting completion runs past its guard, twice the
    length cap, before it closes: finite dimension is then not decided."""

    def __init__(self, cap: int):
        super().__init__(
            f"undecided: the rewriting completion passed degree {2 * cap} "
            f"(twice the length cap {cap}) without closing")
        self.cap = cap


class LoopAtDistinguished(SkewBrauerError):
    """Raised when a vertex marked for duplication carries a loop."""


class NotSkewGentle(SkewBrauerError):
    """Raised when an operation requires a skew-gentle presentation."""


class UnsupportedClass(SkewBrauerError):
    """Raised when an algebra is neither gentle nor an admissible skew-gentle presentation."""


class UnknownArrow(SkewBrauerError):
    """Raised when a cut set mentions an arrow that is not in the quiver."""


class UnknownVertex(SkewBrauerError):
    """Raised when an operation references a vertex that does not exist."""


class NotSourceOrSink(SkewBrauerError):
    """Raised when a reflection is requested at an interior vertex."""


class TrivialPolygon(SkewBrauerError):
    """Raised when a boundary move targets a trivial polygon."""


class InvalidPosition(SkewBrauerError):
    """Raised when a boundary move targets a position that does not exist."""


class NotReflectable(SkewBrauerError):
    """Raised when a geometric reflection is requested at an unsuitable arc."""


class ParseError(SkewBrauerError):
    """Raised on malformed input files; carries file and line information."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line
        self.bare_message = message
