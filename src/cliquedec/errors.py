"""Exception types shared across the package."""


class CliquedecError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdge(CliquedecError):
    pass


class UnknownVertex(CliquedecError):
    pass


class NotChordal(CliquedecError):
    def __init__(self, hole):
        super().__init__(f"graph is not chordal, hole: {hole}")
        self.hole = hole


class NotAClique(CliquedecError):
    pass


class NotATree(CliquedecError):
    pass


class NotASeparation(CliquedecError):
    pass


class EmptySide(CliquedecError):
    pass


class CliquesEqual(CliquedecError):
    pass


class MengerViolation(CliquedecError):
    """Flow value, cut size and path count disagree; indicates a bug, never expected."""


class NotNested(CliquedecError):
    pass


class ImproperSeparation(CliquedecError):
    pass


class InvariantViolation(CliquedecError):
    """A checked invariant of a construction failed; indicates a bug, never expected."""


class EmptyBottleneckSelection(CliquedecError):
    """No selectable separation in a bottleneck; indicates a bug, never expected."""


class PreconditionViolated(CliquedecError):
    pass


class TooLarge(CliquedecError):
    pass


class OutOfRange(CliquedecError):
    pass


class LiftCrossesBoundary(CliquedecError):
    """A lift leaves the derived window; the caller must enlarge it."""


class WindowNotChordal(CliquedecError):
    def __init__(self, L, hole):
        super().__init__(f"window at L={L} has a hole: {hole}")
        self.hole = hole


class ActionMismatch(CliquedecError):
    """Deck-action bookkeeping on the window is inconsistent; enlarge the window."""


class BallNotPreserved(CliquedecError):
    def __init__(self, center, message=""):
        super().__init__(message or f"ball not preserved at {center!r}")
        self.center = center
