"""The output formats.  Every JSON document is the bytes of ``json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False)``, written by ``value`` without that call's pure-Python indenting encoder.  A csv cell is
quoted as the csv module quotes it under its default CRLF line end: one holding ``,``, ``"``, CR or LF."""

from itertools import repeat
from operator import itemgetter
from types import SimpleNamespace

SLOT = object()  # a value left open, where ``split`` and ``document`` cut the text
_CUT = "\0"  # what a SLOT writes; no other written text holds a raw NUL, as every control character is escaped


def _escape(text: str) -> str:  # the first JSON string written imports json; this name then holds its escaper
    global _escape
    from json.encoder import encode_basestring_ascii as _escape
    return _escape(text)


def value(obj, level: int = 0) -> str:
    """``obj`` as ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)`` writes it ``level`` levels deep;
    types other than the exact JSON scalars, dict and list, and non-finite floats, go through that call."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int or kind is float and obj - obj == 0.0:
        return repr(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    if kind is dict:
        return _texts([obj], level)[0]
    if kind is list:
        texts, indent = _texts(obj, level + 1), "\n" + "  " * level
        return f"[{indent}  {_joined(texts, level)}{indent}]" if texts else "[]"
    if obj is SLOT:
        return _CUT
    import json
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n" + "  " * level)


def document(doc: dict, key: str, items: list[str]) -> str:
    """``value(doc)`` with ``doc[key]`` the list of the written ``items``, each copied once, straight into the text;
    ``items`` is used up, as its first and last texts take the text before and after them."""
    if not items:
        return value({**doc, key: []})
    head, between, tail = value({**doc, key: [SLOT, SLOT]}).split(_CUT)
    items[0] = head + items[0]
    items[-1] += tail
    return between.join(items)


def split(values: list, level: int) -> list[str]:
    """``values`` as the items of a list ``level`` levels deep, without its brackets, cut at each ``SLOT``."""
    return _joined(_texts(values, level + 1), level).split(_CUT)


def _joined(texts: list[str], level: int) -> str:
    return (",\n" + "  " * (level + 1)).join(texts)


def _texts(values, level: int) -> list[str]:
    """Each of ``values`` as ``value`` writes it.  A dict, str-keyed, fills a ``%`` layout of its sorted keys,
    escaped with their ``%`` doubled, with one slot per value; each next dict with the same keys only fills it."""
    texts, keys, indent, deeper = [], None, "\n" + "  " * level, repeat(level + 1)
    for item in values:
        if type(item) is not dict:
            texts.append(value(item, level))
            continue
        if item.keys() != keys:
            keys, names = item.keys(), sorted(item)
            slots = [_escape(k).replace("%", "%%") + ": %s" for k in names]
            layout = f"{{{indent}  {_joined(slots, level)}{indent}}}" if names else "{}"
            pick = itemgetter(*names) if len(names) > 1 else lambda r, names=names: tuple(map(r.__getitem__, names))
        texts.append(layout % tuple(map(value, pick(item), deeper)))
    return texts


def csv_lines(rows, end: str = "\r\n") -> list[str]:
    """Each row as the csv module writes it under its default CRLF line end, but ended by ``end``."""
    import csv  # with the first csv document; a writer whose ``write`` is ``str`` returns each row's text
    return [line[:-2] + end for line in map(csv.writer(SimpleNamespace(write=str)).writerow, rows)]
