"""Shared exception types and the address grammar of built-in objects."""

import re
from typing import Callable, TypeVar

T = TypeVar("T")

_INTEGER = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    """Malformed textual input (words, braids, matrices, presentations).

    Messages always name the offending token and its position so CLI
    users can find the problem without a stack trace.
    """


def parse_int(text: str) -> int:
    """Reads an integer: ASCII digits with an optional leading minus sign.

    Unlike int(), rejects a plus sign, underscores, surrounding spaces
    and non-ASCII digits, raising ParseError.
    """
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"{text!r} is not an integer")
    return int(text)


def _placeholder(entry: str) -> str:
    """'chain:g' reads 'chain:g=G'; a fixed name reads as itself."""
    _, sep, key = entry.partition(":")
    return f"{entry}={key.upper()}" if sep else entry


def resolve_address(kind: str, address: str, builders: dict[str, Callable[..., T]]) -> T:
    """Builds the object named by an address NAME or HEAD:KEY=INT.

    builders maps each fixed NAME to a builder taking no argument and
    each family "HEAD:KEY" to a builder taking the integer.  Integers
    are ASCII digits with an optional leading minus sign.  kind names
    the object in error messages ("system", "symmetry", ...).
    """
    if ":" not in address and address in builders:
        return builders[address]()
    head, _, param = address.partition(":")
    family = next((e for e in builders if ":" in e and e.partition(":")[0] == head), None)
    if family is None:
        choices = [_placeholder(entry) for entry in builders]
        if len(choices) > 1:
            choices[-1] = "or " + choices[-1]
        raise ParseError(f"unknown {kind} {address!r}; expected {', '.join(choices)}")
    key = family.partition(":")[2] + "="
    if not param.startswith(key):
        raise ParseError(f"{kind} {address!r}: expected {_placeholder(family)}")
    try:
        value = parse_int(param[len(key):])
    except ParseError as exc:
        raise ParseError(f"{kind} {address!r}: {exc}") from None
    return builders[family](value)
