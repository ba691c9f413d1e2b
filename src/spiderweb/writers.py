"""The output formats.  Every JSON document is the bytes of ``json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False)`` and every csv row those of the csv module's default writer, each written without that code;
in a run of same-key records or of csv rows, a cell that holds the object of the one before reuses its text."""

from itertools import repeat
from operator import itemgetter

SLOT = object()  # a value left open, where ``split`` and ``document`` cut the text
_CUT = "\0"  # what a SLOT writes; no other written text holds a raw NUL, as every control character is escaped
_UNSET = object()  # the object "before" each cell of a run's first row, which no cell holds


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
    escaped with their ``%`` doubled, with one slot per value; each next dict with the same keys only fills it,
    and a value that is the object of the dict before at its key reuses that one's text."""
    texts, keys, indent, inner = [], None, "\n" + "  " * level, level + 1
    for item in values:
        if type(item) is not dict:
            texts.append(value(item, level))
            continue
        if item.keys() != keys:
            keys, names = item.keys(), sorted(item)
            slots = [_escape(k).replace("%", "%%") + ": %s" for k in names]
            layout = f"{{{indent}  {_joined(slots, level)}{indent}}}" if names else "{}"
            pick = itemgetter(*names) if len(names) > 1 else lambda r, names=names: tuple(map(r.__getitem__, names))
            last, cells = repeat(_UNSET), repeat("")
        row = pick(item)
        last, cells = row, [text if obj is old else value(obj, inner) for obj, old, text in zip(row, last, cells)]
        texts.append(layout % tuple(cells))
    return texts


def csv_lines(rows, end: str = "\r\n") -> list[str]:
    """Each row as the csv module writes it under its default CRLF line end, but ended by ``end``: a cell's text
    (a str, None as empty, any other its ``str``) holding ``,``, ``"``, CR or LF is quoted, each ``"`` doubled."""
    lines, last, cells = [], (), ()
    for row in rows:
        if len(row) != len(cells):
            last, cells = repeat(_UNSET), repeat("")
        last, cells = row, [text if cell is old else _cell(cell) for cell, old, text in zip(row, last, cells)]
        lines.append((",".join(cells) or '""' * len(cells)) + end)  # a lone empty cell is quoted, as csv does
    return lines


def _cell(cell) -> str:
    text = cell if isinstance(cell, str) else "" if cell is None else str(cell)
    return '"' + text.replace('"', '""') + '"' if '"' in text or "," in text or "\n" in text or "\r" in text else text
