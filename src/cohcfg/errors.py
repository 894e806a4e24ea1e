"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: usage/format errors exit 2,
integrity and claim failures exit 1, resource guards exit 3.
"""


class UsageError(ValueError):
    """A precondition on arguments was violated."""


class FormatError(ValueError):
    """A serialized configuration file is malformed."""


class IntegrityError(RuntimeError):
    """A structure that was assumed coherent turned out not to be.

    Carries the violating color triple when one is known.
    """

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class ResourceLimitError(RuntimeError):
    """A computation exceeded one of the documented size guards."""


MEMORY_BUDGET = 1 << 30  # bytes; read at each call, so tests can patch it


def require_memory(nbytes, what):
    """Raise ResourceLimitError if ``what`` is estimated to hold more."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(f"{what}: estimated {nbytes >> 20} MiB > "
                                 f"memory budget {MEMORY_BUDGET >> 20} MiB")


class ColorActionError(RuntimeError):
    """A point map failed to induce a permutation of the colors.

    ``witness`` is a cell whose image lands outside a single color.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
