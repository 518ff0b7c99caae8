"""Exception types shared across the package.

Input problems (bad files, bad sizes) derive from InputError; semantic
failures (an algebra missing an axiom, a witness that does not check out)
derive from SemanticError.  The CLI maps InputError to exit code 2 and
SemanticError to exit code 1.
"""


def shown(value) -> str:
    """repr(value) for an error message.  An int past the interpreter's
    digit limit for str (sys.get_int_max_str_digits), alone or inside a
    container, is named by its size instead of raising ValueError."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<an integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer too long to print>"


class KeikitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KeikitError, ValueError):
    """Malformed or out-of-contract input."""


class SemanticError(KeikitError):
    """Structurally valid input that fails a mathematical requirement."""


class MalformedLine(InputError):
    """A line of a text serialization could not be parsed."""

    def __init__(self, lineno: int, text: str, reason: str = "") -> None:
        self.lineno = lineno
        self.text = text
        msg = f"line {lineno}: {text!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class SelfLoop(InputError):
    """An edge list contains an edge from a vertex to itself."""

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class OutOfRange(InputError):
    """An index is outside the declared carrier or vertex range."""


class TooLarge(InputError):
    """The requested size exceeds a documented hard limit."""


class NotAGroup(InputError):
    """A composition table is not a group multiplication table."""


class NotAKei(SemanticError):
    """An operation expected a kei but the table fails the kei axioms."""


class NotBijective(SemanticError):
    """A map that must be a permutation is not one."""


class NotReplete(SemanticError):
    """A neighborhood family is not compatible with its permutation.

    Carries the lexicographically least pair (a, b) at which the
    repleteness conditions fail.
    """

    def __init__(self, a: int, b: int, reason: str = "") -> None:
        self.pair = (a, b)
        msg = f"repleteness fails at ({a}, {b})"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class InvalidWitness(SemanticError):
    """A folding witness violates its own invariants."""


class WitnessMismatch(SemanticError):
    """A folding witness does not reproduce the table it claims to."""


class NotAGraphIso(SemanticError):
    """A supplied vertex map is not an isomorphism of the given digraphs."""


class InvalidIso(SemanticError):
    """A supplied element map is not an isomorphism of the given algebras."""


class PreconditionViolated(SemanticError):
    """A derivation was asked to start from hypotheses that do not hold."""


class InternalContradiction(KeikitError):
    """Two computations that must agree did not.  Indicates a bug."""
