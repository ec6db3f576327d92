"""Domain error hierarchy. The CLI maps any DomainError to exit code 1."""


class DomainError(Exception):
    """Base class for all expected, user-reportable failures."""


# --- lexing ---------------------------------------------------------------

class LexError(DomainError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


class UnterminatedString(LexError):
    pass


class UnterminatedComment(LexError):
    pass


class IllegalCharacter(LexError):
    pass


# --- parsing --------------------------------------------------------------

class ParseError(DomainError):
    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        detail = f"{message} at byte {offset}"
        if expected:
            detail += " (expected one of: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class UnbalancedBrackets(ParseError):
    pass


# --- vocabulary / encoding ------------------------------------------------

class EmptyCorpus(DomainError):
    pass


class CapTooSmall(DomainError):
    pass


class IdOutOfRange(DomainError):
    pass


# --- model numerics -------------------------------------------------------

class NonFiniteActivation(DomainError):
    pass


class NonFiniteGradient(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class NoTargets(DomainError):
    pass


class CorruptCheckpoint(DomainError):
    pass


# --- dataset --------------------------------------------------------------

class MalformedRecord(DomainError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateIdx(DomainError):
    pass


class EmptyDataset(DomainError):
    pass


class UnlabeledRecord(DomainError):
    pass


class TooFewPositives(DomainError):
    pass


# --- source ingestion -----------------------------------------------------

class BadAddress(DomainError):
    pass


class NotVerified(DomainError):
    pass


class RateLimited(DomainError):
    pass


class NetworkError(DomainError):
    pass
