"""Strict reader for the template document syntax.

The supported language is a small YAML subset: block mappings, block
sequences, plain/quoted scalars, literal block scalars (``|`` and ``|-``),
single-level flow mappings such as ``{ get_param: image }`` and flow
sequences of scalars such as ``[my_instance, first_address]``. Anchors,
aliases, tags, directives, folded scalars, and multi-document streams are
rejected with position-annotated errors. Mapping keys are always strings
and duplicates are errors.

There is no writer: a template is kept as the text it was read from.
"""

import re

from .errors import TemplateSyntaxError

_INT_RE = re.compile(r"^[-+]?[0-9]+$")
_FLOAT_RE = re.compile(r"^[-+]?([0-9]+\.[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$")
# flow tokens: blanks; a plain scalar in a flow mapping or sequence; a flow
# mapping key; a quoted string (a double-quoted one's body, then '"', a
# lone trailing backslash, or nothing when the line ends first)
_SPACES = re.compile(" *")
_PLAIN_IN_MAP = re.compile(r"[^,\]}]*")
_PLAIN_IN_SEQ = re.compile(r"[^,\]]*")
_FLOW_KEY = re.compile(r"[^:,}]*")
_SINGLE_QUOTED = re.compile(r"'((?:[^']|'')*)'(?!')")
_DOUBLE_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)("|\\?)', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself
# the part of a line before its comment: quoted spans are skipped whole, and
# '#' starts a comment at the start of the line or after a blank
_UNCOMMENTED = re.compile(r"""(?:[^'"#]+|'[^']*'|"(?:[^"\\]|\\.)*"|(?<=[^ \t])#)*""", re.DOTALL)

_INFINITIES = (float("inf"), float("-inf"))

# characters that cannot start a plain scalar in this subset
_RESERVED_LEAD = "&*!%@`|>"


def _scalar_from_plain(text):
    if text in ("null", "~"):
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if text[0] not in "+-.0123456789":
        return text
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _plain(raw, lineno, column):
    """Value of the plain scalar `raw`; errors are reported at `column`."""
    if not raw:
        raise TemplateSyntaxError("empty scalar", lineno, column)
    if raw[0] in _RESERVED_LEAD:
        raise TemplateSyntaxError(f"unsupported syntax: values may not start with {raw[0]!r}", lineno, column)
    value = _scalar_from_plain(raw)
    if value in _INFINITIES:  # no spelling of one reads back as it
        raise TemplateSyntaxError(f"number {raw} is out of range", lineno, column)
    return value


def _strip_comment(content):
    """Remove a trailing comment that starts outside any quoted span."""
    if "#" in content:
        end = _UNCOMMENTED.match(content).end()
        if content.startswith("#", end):
            return content[:end].rstrip()
    return content.rstrip()


def _key_split(content):
    """Index of the ':' separating key from value, or None; a quoted key
    ends at its closing quote, and the ':' must follow at once."""
    lead = content[0]
    if lead in "{[\"'&*!%@`":
        if lead not in "\"'":
            return None
        match = (_DOUBLE_QUOTED if lead == '"' else _SINGLE_QUOTED).match(content)
        if match is None or lead == '"' and match[2] != '"':
            return None
        pos = match.end()
        return pos if content.startswith(": ", pos) or content[pos:] == ":" else None
    pos = content.find(": ")
    if pos >= 0:
        return pos
    return len(content) - 1 if content[-1] == ":" else None


class _FlowReader:
    """Parses a one-line flow value: flow map, flow sequence, or quoted scalar.

    `_parse_inline` reads a plain scalar outside any collection itself."""

    def __init__(self, text, lineno, col0):
        self.text = text
        self.pos = 0
        self.lineno = lineno
        self.col0 = col0

    def error(self, message):
        raise TemplateSyntaxError(message, self.lineno, self.col0 + self.pos)

    def peek(self):
        """Next character after any blanks, which are skipped; "" at the end."""
        pos = self.pos
        if self.text.startswith(" ", pos):
            self.pos = pos = _SPACES.match(self.text, pos).end()
        return self.text[pos : pos + 1]

    def read_quoted(self):
        text = self.text
        if text[self.pos] == "'":
            match = _SINGLE_QUOTED.match(text, self.pos)
            if match:
                self.pos = match.end()
                return match[1].replace("''", "'")
        else:
            match = _DOUBLE_QUOTED.match(text, self.pos)
            body, end = match[1], match[2]
            if end == '"':
                self.pos = match.end()
                return _ESCAPE.sub(lambda esc: _ESCAPES.get(esc[1], esc[1]), body)
            if end:
                self.pos = len(text)
                self.error("unterminated escape in double-quoted string")
        self.pos = len(text)
        self.error("unterminated quoted string")

    def read_plain(self, span):
        match = span.match(self.text, self.pos)
        self.pos = match.end()
        return _plain(match[0].strip(), self.lineno, self.col0 + self.pos)

    def read_value(self, depth):
        ch = self.peek()
        if ch == "{":
            if depth > 0:
                self.error("nested flow mappings are not supported")
            return self.read_flow_map()
        if ch == "[":
            return self.read_flow_seq()
        if ch in ("'", '"'):
            return self.read_quoted()
        return self.read_plain(_PLAIN_IN_MAP)

    def read_flow_map(self):
        self.pos += 1  # consume '{'
        out = {}
        if self.peek() == "}":
            self.pos += 1
            return out
        while True:
            ch = self.peek()
            if ch in ("'", '"'):
                key = self.read_quoted()
            else:
                match = _FLOW_KEY.match(self.text, self.pos)
                self.pos = match.end()
                key = match[0].strip()
            if not key:
                self.error("expected key in flow mapping")
            if self.peek() != ":":
                self.error("expected ':' in flow mapping")
            self.pos += 1
            value = self.read_value(depth=1)
            if key in out:
                self.error(f"duplicate key {key!r} in flow mapping")
            out[key] = value
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return out
            self.error("expected ',' or '}' in flow mapping")

    def read_flow_seq(self):
        self.pos += 1  # consume '['
        out = []
        if self.peek() == "]":
            self.pos += 1
            return out
        while True:
            ch = self.peek()
            if ch in ("{", "["):
                self.error("nested collections in flow sequences are not supported")
            if ch in ("'", '"'):
                out.append(self.read_quoted())
            else:
                out.append(self.read_plain(_PLAIN_IN_SEQ))
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return out
            self.error("expected ',' or ']' in flow sequence")


def _parse_inline(text, lineno, col0):
    if text.lstrip(" ")[:1] not in ("{", "[", "'", '"'):
        # a plain scalar: the rest of the line
        return _plain(text.strip(), lineno, col0 + len(text))
    reader = _FlowReader(text, lineno, col0)
    value = reader.read_value(depth=0)
    if reader.peek():
        reader.error("trailing content after value")
    return value


def _is_item(content):
    return content == "-" or content.startswith("- ")


class _Parser:
    """Reads lines with one cursor, `idx`; each line is classified when
    first read, and a literal block's lines never are, so a block may hold
    text that would be an error outside it.

    The first entry of a `- key: value` item is read as a line of its own,
    `pending`, at the item's indentation: (lineno, indent, content, column),
    where `column` is where the entry's text really starts."""

    def __init__(self, source):
        # raw lines are kept verbatim; literal blocks read them directly
        self.raw = source.split("\n")
        self.idx = 0
        self.pending = None
        self._ahead = (-1, None)  # (idx, peek() from there), read once

    def error(self, message, lineno, column=None):
        raise TemplateSyntaxError(message, lineno, column)

    def _classify(self, raw, lineno):
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            return None
        content = raw.lstrip(" ")
        if content[0] == "\t":
            self.error("tab characters are not allowed in indentation", lineno)
        if stripped[0] in "-.%":
            if stripped == "---" or stripped.startswith("--- ") or stripped == "...":
                self.error("document markers / multi-document streams are not supported", lineno)
            if stripped[0] == "%":
                self.error("directives are not supported", lineno)
        indent = len(raw) - len(content)
        content = _strip_comment(content)
        if not content:
            return None
        return lineno, indent, content, indent

    def peek(self):
        """Next significant line as (lineno, indent, content, column);
        taking it sets `idx = lineno` and clears `pending`."""
        if self.pending is not None:
            return self.pending
        i = self.idx
        if self._ahead[0] == i:
            return self._ahead[1]
        line = None
        for lineno in range(i + 1, len(self.raw) + 1):
            line = self._classify(self.raw[lineno - 1], lineno)
            if line is not None:
                break
        self._ahead = (i, line)
        return line

    def parse_document(self):
        first = self.peek()
        if first is None:
            self.error("empty document", 1)
        value = self.parse_block(first[1])
        rest = self.peek()
        if rest is not None:
            self.error("content after the end of the top-level block", rest[0], rest[3])
        return value

    def parse_block(self, indent):
        lineno, line_indent, content, column = self.peek()
        if line_indent != indent:
            self.error("unexpected indentation", lineno, column)
        if _is_item(content):
            return self.parse_sequence(indent)
        return self.parse_mapping(indent)

    def _child_block(self, parent_indent):
        nxt = self.peek()
        if nxt is None or nxt[1] <= parent_indent:
            return None
        return self.parse_block(nxt[1])

    def parse_mapping(self, indent):
        out = {}
        while True:
            nxt = self.peek()
            if nxt is None:
                return out
            lineno, line_indent, content, column = nxt
            if line_indent < indent:
                return out
            if line_indent > indent:
                self.error("unexpected indentation", lineno, column)
            if _is_item(content):
                self.error("sequence item where mapping entry was expected", lineno, column)
            pos = _key_split(content)
            if pos is None:
                self.error("expected 'key: value' mapping entry", lineno, column)
            key = content[:pos].strip()
            if not key:
                self.error("empty mapping key", lineno, column)
            if key[0] in "\"'":
                key = _parse_inline(key, lineno, column)
            if key in out:
                self.error(f"duplicate key {key!r}", lineno, column)
            rest = content[pos + 1 :].strip()
            self.idx, self.pending = lineno, None
            # `content` ends in no blank, so `rest` ends where it does
            col = column + len(content) - len(rest)
            out[key] = self._entry_value(rest, indent, lineno, col)

    def parse_sequence(self, indent):
        out = []
        while True:
            nxt = self.peek()
            if nxt is None:
                return out
            lineno, line_indent, content, column = nxt
            if line_indent < indent:
                return out
            if line_indent > indent:
                self.error("unexpected indentation", lineno, column)
            if not _is_item(content):
                self.error("mapping entry where sequence item was expected", lineno, column)
            rest = content[2:].strip()
            self.idx, self.pending = lineno, None
            col = column + len(content) - len(rest)  # as in parse_mapping
            if rest and _key_split(rest) is not None:
                # the item is a mapping whose first entry shares the dash line
                if rest.startswith("--- "):
                    self.error("document markers / multi-document streams are not supported", lineno)
                self.pending = (lineno, indent + 2, rest, col)
                out.append(self.parse_block(indent + 2))
            else:
                out.append(self._entry_value(rest, indent, lineno, col))

    def _entry_value(self, rest, parent_indent, lineno, col):
        if rest == "":
            return self._child_block(parent_indent)
        if rest in ("|", "|-"):
            return self._literal_block(parent_indent, clip=(rest == "|"))
        if rest.startswith("|") or rest.startswith(">"):
            self.error(f"unsupported block scalar style {rest!r}", lineno, col)
        return _parse_inline(rest, lineno, col)

    def _literal_block(self, parent_indent, clip):
        raw = self.raw
        start = end = self.idx  # `end`: one past the last non-blank line
        lines = []
        block_indent = None
        for i in range(start, len(raw)):
            text = raw[i].lstrip(" ")
            if not text or text.isspace():
                lines.append("")
                continue
            indent = len(raw[i]) - len(text)
            if indent <= parent_indent:
                break
            if block_indent is None:
                block_indent = indent
            elif indent < block_indent:
                self.error("literal block line indented less than its first line", i + 1)
            lines.append(raw[i][block_indent:])
            end = i + 1
        # trailing blank lines belong to whatever follows, not the block
        self.idx = end
        if block_indent is None:
            return ""
        text = "\n".join(lines[: end - start])
        return text + "\n" if clip else text


def parse(source: str):
    """Parse document text; raises TemplateSyntaxError outside the subset."""
    return _Parser(source).parse_document()
