"""Strict reader/writer for the template document syntax.

The supported language is a small YAML subset: block mappings, block
sequences, plain/quoted scalars, literal block scalars (``|`` and ``|-``),
single-level flow mappings such as ``{ get_param: image }`` and flow
sequences of scalars such as ``[my_instance, first_address]``. Anchors,
aliases, tags, directives, folded scalars, and multi-document streams are
rejected with position-annotated errors. Mapping keys are always strings
and duplicates are errors.

`dump` produces the canonical form: two-space indentation, keys in
insertion order, multi-line strings as literal blocks. Wrap a mapping or
sequence in `Flow` to have it emitted inline.
"""

import re

from .errors import TemplateSyntaxError

_INT_RE = re.compile(r"^[-+]?[0-9]+$")
_FLOAT_RE = re.compile(r"^[-+]?([0-9]+\.[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$")
_PLAIN_KEY_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.:/-]*$")

# characters that cannot start a plain scalar in this subset
_RESERVED_LEAD = "&*!%@`|>"


class Flow:
    """Marks a mapping or sequence for inline (flow-style) emission."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if isinstance(other, Flow):
            return self.value == other.value
        return NotImplemented

    def __repr__(self):
        return f"Flow({self.value!r})"


def _scalar_from_plain(text):
    if text in ("null", "~"):
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _strip_comment(content):
    """Remove a trailing comment that starts outside any quoted span."""
    quote = None
    i = 0
    while i < len(content):
        ch = content[i]
        if quote:
            if quote == '"' and ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#" and (i == 0 or content[i - 1] in " \t"):
            return content[:i].rstrip()
        i += 1
    return content.rstrip()


class _FlowReader:
    """Parses a one-line flow value: flow map, flow sequence, or scalar."""

    def __init__(self, text, lineno, col0):
        self.text = text
        self.pos = 0
        self.lineno = lineno
        self.col0 = col0

    def error(self, message):
        raise TemplateSyntaxError(message, self.lineno, self.col0 + self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_quoted(self):
        quote = self.text[self.pos]
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if quote == '"' and ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    self.error("unterminated escape in double-quoted string")
                esc = self.text[self.pos]
                out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                self.pos += 1
                continue
            if ch == quote:
                if quote == "'" and self.text[self.pos : self.pos + 2] == "''":
                    out.append("'")
                    self.pos += 2
                    continue
                self.pos += 1
                return "".join(out)
            out.append(ch)
            self.pos += 1
        self.error("unterminated quoted string")

    def read_plain(self, stops):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            self.pos += 1
        raw = self.text[start : self.pos].strip()
        if not raw:
            self.error("empty scalar")
        if raw[0] in _RESERVED_LEAD:
            self.error(f"unsupported syntax: values may not start with {raw[0]!r}")
        return _scalar_from_plain(raw)

    def read_value(self, depth):
        ch = self.peek()
        if ch == "{":
            if depth > 0:
                self.error("nested flow mappings are not supported")
            return self.read_flow_map()
        if ch == "[":
            return self.read_flow_seq()
        if ch in ("'", '"'):
            self.skip_ws()
            return self.read_quoted()
        return self.read_plain(",]}" if depth > 0 else "")

    def read_flow_map(self):
        self.skip_ws()
        self.pos += 1  # consume '{'
        out = {}
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return out
        while True:
            ch = self.peek()
            if ch in ("'", '"'):
                key = self.read_quoted()
            else:
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos] not in ":,}":
                    self.pos += 1
                key = self.text[start : self.pos].strip()
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
        self.skip_ws()
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
                out.append(self.read_plain(",]"))
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return out
            self.error("expected ',' or ']' in flow sequence")


def _parse_inline(text, lineno, col0):
    reader = _FlowReader(text, lineno, col0)
    value = reader.read_value(depth=0)
    if not reader.at_end():
        reader.error("trailing content after value")
    return value


class _Parser:
    def __init__(self, source):
        # raw lines are kept verbatim; literal blocks read them directly
        self.raw = source.split("\n")
        self.idx = 0

    def error(self, message, lineno, column=None):
        raise TemplateSyntaxError(message, lineno, column)

    def _classify(self, raw, lineno):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            return None
        indent = len(raw) - len(raw.lstrip(" "))
        if "\t" in raw[:indent] or raw[indent] == "\t":
            self.error("tab characters are not allowed in indentation", lineno)
        if stripped == "---" or stripped.startswith("--- ") or stripped == "...":
            self.error("document markers / multi-document streams are not supported", lineno)
        if stripped.startswith("%"):
            self.error("directives are not supported", lineno)
        content = _strip_comment(raw[indent:])
        if not content:
            return None
        return indent, content

    def peek(self):
        """Next significant line as (index, lineno, indent, content)."""
        i = self.idx
        while i < len(self.raw):
            info = self._classify(self.raw[i], i + 1)
            if info is not None:
                return i, i + 1, info[0], info[1]
            i += 1
        return None

    def parse_document(self):
        first = self.peek()
        if first is None:
            self.error("empty document", 1)
        value = self.parse_block(first[2])
        rest = self.peek()
        if rest is not None:
            self.error("content after the end of the top-level block", rest[1], rest[2])
        return value

    def parse_block(self, indent):
        first = self.peek()
        _, lineno, line_indent, content = first
        if line_indent != indent:
            self.error("unexpected indentation", lineno, line_indent)
        if content == "-" or content.startswith("- "):
            return self.parse_sequence(indent)
        return self.parse_mapping(indent)

    def _child_block(self, parent_indent):
        nxt = self.peek()
        if nxt is None or nxt[2] <= parent_indent:
            return None
        return self.parse_block(nxt[2])

    @staticmethod
    def _key_split(content):
        """Index of the ':' separating key from value, or None."""
        if content[0] in "{[\"'&*!%@`":
            return None
        for i, ch in enumerate(content):
            if ch == ":" and (i + 1 == len(content) or content[i + 1] == " "):
                return i
        return None

    def parse_mapping(self, indent):
        out = {}
        while True:
            nxt = self.peek()
            if nxt is None:
                return out
            i, lineno, line_indent, content = nxt
            if line_indent < indent:
                return out
            if line_indent > indent:
                self.error("unexpected indentation", lineno, line_indent)
            if content == "-" or content.startswith("- "):
                self.error("sequence item where mapping entry was expected", lineno, line_indent)
            pos = self._key_split(content)
            if pos is None:
                self.error("expected 'key: value' mapping entry", lineno, line_indent)
            key = content[:pos].strip()
            if not key:
                self.error("empty mapping key", lineno, line_indent)
            if key[0] in "\"'":
                key = _parse_inline(key, lineno, line_indent)
                if not isinstance(key, str):
                    self.error("mapping keys must be strings", lineno, line_indent)
            if key in out:
                self.error(f"duplicate key {key!r}", lineno, line_indent)
            rest = content[pos + 1 :].strip()
            self.idx = i + 1
            out[key] = self._entry_value(rest, indent, lineno, line_indent + pos + 2)

    def parse_sequence(self, indent):
        out = []
        while True:
            nxt = self.peek()
            if nxt is None:
                return out
            i, lineno, line_indent, content = nxt
            if line_indent < indent:
                return out
            if line_indent > indent:
                self.error("unexpected indentation", lineno, line_indent)
            if content != "-" and not content.startswith("- "):
                self.error("mapping entry where sequence item was expected", lineno, line_indent)
            rest = content[2:].strip() if content != "-" else ""
            self.idx = i + 1
            if rest and self._key_split(rest) is not None:
                # item is a mapping whose first entry shares the dash line;
                # re-inject it at the item indentation and parse as a block
                self.raw.insert(self.idx, " " * (indent + 2) + rest)
                out.append(self.parse_block(indent + 2))
            else:
                out.append(self._entry_value(rest, indent, lineno, line_indent + 2))

    def _entry_value(self, rest, parent_indent, lineno, col):
        if rest == "":
            return self._child_block(parent_indent)
        if rest in ("|", "|-"):
            return self._literal_block(parent_indent, clip=(rest == "|"))
        if rest.startswith("|") or rest.startswith(">"):
            self.error(f"unsupported block scalar style {rest!r}", lineno, col)
        return _parse_inline(rest, lineno, col)

    def _literal_block(self, parent_indent, clip):
        collected = []
        while self.idx < len(self.raw):
            raw = self.raw[self.idx]
            if raw.strip() == "":
                collected.append((self.idx + 1, raw, None))
                self.idx += 1
                continue
            indent = len(raw) - len(raw.lstrip(" "))
            if indent <= parent_indent:
                break
            collected.append((self.idx + 1, raw, indent))
            self.idx += 1
        # trailing blank lines belong to whatever follows, not the block
        while collected and collected[-1][2] is None:
            self.idx -= 1
            collected.pop()
        block_indent = None
        for _, _, indent in collected:
            if indent is not None:
                block_indent = indent
                break
        if block_indent is None:
            return ""
        lines = []
        for lineno, raw, indent in collected:
            if indent is None:
                lines.append("")
            else:
                if indent < block_indent:
                    self.error("literal block line indented less than its first line", lineno)
                lines.append(raw[block_indent:])
        text = "\n".join(lines)
        return text + "\n" if clip else text


def parse(source: str):
    """Parse document text; raises TemplateSyntaxError outside the subset."""
    return _Parser(source).parse_document()


def _plain_safe(text):
    if text == "" or text != text.strip():
        return False
    if _scalar_from_plain(text) is not text:
        return False
    if text[0] in "-?#{}[]\"'&*!%@`|>,":
        return False
    if ": " in text or text.endswith(":"):
        return False
    if " #" in text:
        return False
    return not any(ch in text for ch in "\n\t{}[]")


def _dump_scalar(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if _plain_safe(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _dump_key(key):
    if not isinstance(key, str):
        raise TypeError("mapping keys must be strings")
    if _PLAIN_KEY_RE.match(key) and not key.endswith(":"):
        return key
    return _dump_scalar(key)


def _dump_flow(value):
    if isinstance(value, Flow):
        value = value.value
    if isinstance(value, dict):
        inner = ", ".join(f"{_dump_key(k)}: {_dump_flow(v)}" for k, v in value.items())
        return "{ " + inner + " }" if inner else "{}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump_flow(v) for v in value) + "]"
    return _dump_scalar(value)


def _literal_safe(text):
    """True when a clip/strip literal block reproduces `text` exactly."""
    if "\n" not in text or text.endswith("\n\n") or text == "\n":
        return False
    body = text[:-1] if text.endswith("\n") else text
    for line in body.split("\n"):
        if line and not line.strip():
            return False  # whitespace-only line would collapse to empty
        if line.startswith("\t"):
            return False  # a leading tab would terminate the block
    return True


def _literal_lines(key_prefix, text, indent):
    body = text[:-1] if text.endswith("\n") else text
    header = key_prefix + (" |" if text.endswith("\n") else " |-")
    lines = [header]
    pad = " " * (indent + 2)
    for part in body.split("\n"):
        lines.append(pad + part if part else "")
    return lines


def _dump_block(value, indent):
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        if not value:
            return [pad + "{}"]
        for k, v in value.items():
            key = _dump_key(k)
            if isinstance(v, Flow):
                lines.append(f"{pad}{key}: {_dump_flow(v)}")
            elif isinstance(v, dict) and v:
                lines.append(f"{pad}{key}:")
                lines.extend(_dump_block(v, indent + 2))
            elif isinstance(v, list) and v:
                lines.append(f"{pad}{key}:")
                lines.extend(_dump_block(v, indent + 2))
            elif isinstance(v, str) and _literal_safe(v):
                lines.extend(_literal_lines(f"{pad}{key}:", v, indent))
            elif isinstance(v, (dict, list)):
                lines.append(f"{pad}{key}: {_dump_flow(v)}")
            else:
                lines.append(f"{pad}{key}: {_dump_scalar(v)}")
        return lines
    if isinstance(value, list):
        if not value:
            return [pad + "[]"]
        for item in value:
            if isinstance(item, Flow):
                lines.append(f"{pad}- {_dump_flow(item)}")
            elif isinstance(item, dict) and item:
                sub = _dump_block(item, indent + 2)
                lines.append(pad + "- " + sub[0][indent + 2 :])
                lines.extend(sub[1:])
            elif isinstance(item, list) and item:
                lines.append(pad + "-")
                lines.extend(_dump_block(item, indent + 2))
            elif isinstance(item, str) and _literal_safe(item):
                lines.extend(_literal_lines(f"{pad}-", item, indent))
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}- {_dump_flow(item)}")
            else:
                lines.append(f"{pad}- {_dump_scalar(item)}")
        return lines
    return [pad + _dump_scalar(value)]


def dump(value) -> str:
    """Serialize to canonical text: 2-space indent, insertion order kept."""
    return "\n".join(_dump_block(value, 0)) + "\n"
