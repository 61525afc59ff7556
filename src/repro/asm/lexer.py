"""Tokenizer for RISC-V assembly source.

The paper (Sec. III-C): *"The program text is divided into language units
(tokens such as symbols, comments, or new lines)."*  We tokenize line by
line, preserving 1-based line/column positions so syntax errors can be
highlighted in the editor (Fig. 7).
"""

from __future__ import annotations

import enum
import re
from typing import List

from repro.errors import AsmSyntaxError


class TokenKind(str, enum.Enum):
    LABEL_DEF = "label"        # ``name:``
    DIRECTIVE = "directive"    # ``.word``
    SYMBOL = "symbol"          # mnemonic / register / label reference
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    OPERATOR = "operator"      # + - * / %
    PERCENT_FUNC = "percent"   # %hi / %lo


(LABEL_DEF, DIRECTIVE, SYMBOL, INTEGER, FLOAT, STRING, COMMA, LPAREN, RPAREN,
 OPERATOR, PERCENT_FUNC) = TokenKind


class Token:
    """One lexical unit at its 1-based position (immutable by convention:
    slots, since a frozen dataclass is four times dearer to build)."""

    __slots__ = ("kind", "text", "line", "column", "value")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int,
                 value: object = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}({self.text!r})"


# Order matters: longest / most specific first.  Each match also takes
# the whitespace before its token.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<comment>(\#|//).*)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<char>'(\\.|[^'\\])')
  | (?P<percent>%(hi|lo)\b)
  | (?P<labeldef>[A-Za-z_.$][\w.$]*:)
  | (?P<directive>\.[A-Za-z][\w.]*)
  | (?P<float>\d+\.\d+([eE][-+]?\d+)?)
  | (?P<integer>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)
  | (?P<symbol>@?[A-Za-z_$][\w.$]*)
  | (?P<comma>,)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<operator>[-+*/%])
    )
    """,
    re.VERBOSE,
)

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    '"': '"', "'": "'", "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def unescape_string(literal: str, line: int = 0, column: int = 0) -> str:
    """Decode an assembly string literal (without surrounding quotes)."""
    out = []
    i = 0
    while i < len(literal):
        ch = literal[i]
        if ch == "\\":
            if i + 1 >= len(literal):
                raise AsmSyntaxError("dangling escape in string", line, column)
            nxt = literal[i + 1]
            if nxt == "x":
                match = re.match(r"[0-9a-fA-F]{1,2}", literal[i + 2:])
                if not match:
                    raise AsmSyntaxError("invalid \\x escape", line, column)
                out.append(chr(int(match.group(0), 16)))
                i += 2 + len(match.group(0))
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def tokenize_line(text: str, line_no: int) -> List[Token]:
    """Tokenize one source line; comments and whitespace are discarded."""
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break                       # a character no token starts with
        pos = match.end()
        kind = match.lastgroup
        start = match.start(kind)
        raw = text[start:pos]
        col = start + 1
        if kind == "symbol":
            append(Token(SYMBOL, raw, line_no, col, raw))
        elif kind == "comma":
            append(Token(COMMA, raw, line_no, col))
        elif kind == "integer":
            append(Token(INTEGER, raw, line_no, col, int(raw, 0)))
        elif kind == "lparen":
            append(Token(LPAREN, raw, line_no, col))
        elif kind == "rparen":
            append(Token(RPAREN, raw, line_no, col))
        elif kind == "comment":
            return tokens
        elif kind == "labeldef":
            append(Token(LABEL_DEF, raw, line_no, col, raw[:-1]))
        elif kind == "directive":
            append(Token(DIRECTIVE, raw, line_no, col, raw))
        elif kind == "operator":
            append(Token(OPERATOR, raw, line_no, col))
        elif kind == "percent":
            append(Token(PERCENT_FUNC, raw, line_no, col, raw[1:]))
        elif kind == "string":
            append(Token(STRING, raw, line_no, col,
                         unescape_string(raw[1:-1], line_no, col)))
        elif kind == "char":
            decoded = unescape_string(raw[1:-1], line_no, col)
            append(Token(INTEGER, raw, line_no, col, ord(decoded)))
        else:
            append(Token(FLOAT, raw, line_no, col, float(raw)))
    rest = text[pos:]
    if rest and not rest.isspace():
        bad = pos + len(rest) - len(rest.lstrip())
        raise AsmSyntaxError(f"unexpected character {text[bad]!r}",
                             line_no, bad + 1)
    return tokens


#: a block comment (body in group 1), or a string or character literal or a
#: line comment, inside which ``/*`` opens nothing
_BLOCK_RE = re.compile(r"/\*(.*?)(?:\*/|\Z)"
                       r'|"(?:\\[^\n]|[^"\\\n])*"'
                       r"|'(?:\\[^\n]|[^'\\\n])'"
                       r"|(?:#|//)[^\n]*", re.DOTALL)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def strip_block_comments(source: str) -> str:
    """Remove ``/* ... */`` comments, preserving line numbers: the
    delimiters are dropped, the body is blanked, and an unterminated
    comment runs to the end.  A ``/*`` inside a string or character
    literal, or after a ``#`` / ``//`` line comment, opens nothing."""
    if "/*" not in source:
        return source
    return _BLOCK_RE.sub(lambda m: m.group(0) if m.group(1) is None
                         else _NOT_NEWLINE_RE.sub(" ", m.group(1)), source)
