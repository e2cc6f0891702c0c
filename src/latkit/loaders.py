"""The CLI's input files: a poset, a map or a rule set, each one JSON
document.

Each loader checks the document's shape, raising ParseError with the
file's name, and builds its value through the library's checked
constructor.
"""

import json
import pathlib

from .errors import InputError, ParseError
from .maps import EndoMap
from .order import FinitePoset, build_poset
from .rules import RuleSet


def _read_json(path: str):
    """The JSON document in a file of UTF-8 text.

    The bytes are decoded once and newlines translated as text mode
    does, and json.loads reads the str: an error's line and column are
    those of the text, and a byte order mark or a UTF-16 file is a
    parse error, not a document."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason} at offset {e.start}") from e
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply") from e


def _encodable(path: str, what: str, text: str) -> None:
    """A lone surrogate (JSON's "\\ud800") is no Unicode character, and
    no UTF-8 report can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(
            f"{path}: {what} {text!r} holds a lone surrogate"
        ) from None


def load_poset(path: str) -> FinitePoset:
    """Poset file: {"elements": [labels], "le": [[lesser, greater], ...]}.

    The listed pairs are order assertions; reflexive-transitive closure
    is taken automatically, and cycles are rejected.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: poset file must be a JSON object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(x, str) for x in elements
    ):
        raise ParseError(f"{path}: field 'elements' must be a list of strings")
    for x in elements:
        _encodable(path, "label", x)
    le = doc.get("le", [])
    if not isinstance(le, list):
        raise ParseError(
            f"{path}: field 'le' must be a list of [lesser, greater] pairs"
        )
    pairs = []
    for k, item in enumerate(le):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise ParseError(
                f"{path}: 'le' entry {k} is not a pair of labels"
            )
        pairs.append((item[0], item[1]))
    return build_poset(elements, pairs)


def load_map(P: FinitePoset, path: str):
    """Map file: {"name": string, "table": {label: label, ...}}.

    The table must be total over the poset's elements.  Returns
    (name, EndoMap); the name defaults to the file stem.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or "table" not in doc:
        raise ParseError(
            f"{path}: map file must be an object with a 'table' field"
        )
    table = doc["table"]
    if not isinstance(table, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in table.items()
    ):
        raise ParseError(f"{path}: 'table' must map labels to labels")
    if "name" not in doc:
        # a stem the file system gave undecodable bytes carries them as
        # surrogate escapes, which the report writes back as those bytes
        return pathlib.Path(path).stem, EndoMap.from_labels(P, table)
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    _encodable(path, "map name", name)
    return name, EndoMap.from_labels(P, table)


def load_rules(P: FinitePoset, path: str) -> RuleSet:
    """Rule file: JSON list of {"body": [labels], "head": label}."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: rule file must be a JSON list")
    items = []
    for k, item in enumerate(doc):
        if not isinstance(item, dict) or not isinstance(item.get("head"), str):
            raise ParseError(
                f"{path}: rule {k} must be an object with 'body' and 'head'"
            )
        body = item.get("body", [])
        if not isinstance(body, list) or not all(
            isinstance(x, str) for x in body
        ):
            raise ParseError(f"{path}: rule {k} 'body' must be a list of labels")
        items.append((body, item["head"]))
    return RuleSet.of(P, items)
