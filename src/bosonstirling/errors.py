"""Exceptions shared across the package, and the checks of JSON scalar types."""


class ParseError(ValueError):
    """Malformed word text.

    `offset` is the character position of the offending token in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class RangeError(IndexError):
    """Requested data lies outside what has been materialized or stored."""


def json_int(obj, key: str) -> int:
    """``obj[key]`` if it is a JSON integer (not a boolean), else ValidationError."""
    value = obj[key]
    if type(value) is not int:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def json_bool(obj, key: str) -> bool:
    """``obj[key]`` if it is a JSON boolean, else ValidationError."""
    value = obj[key]
    if type(value) is not bool:
        raise ValidationError(f"{key} must be a boolean, got {value!r}")
    return value
