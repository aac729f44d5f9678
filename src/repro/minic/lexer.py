"""Lexer for MiniC, the C subset the benchmark programs are written in.

Supports:

* keywords: ``int long char double void struct if else while for return
  break continue sizeof``
* integer literals (decimal and hex), floating literals, char literals
  with the usual escapes, string literals
* all C operators used by the benchmarks, including compound assignment
* ``//`` and ``/* */`` comments
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import LexError

KEYWORDS = {
    "int", "long", "char", "double", "void", "struct",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "sizeof",
}

# Longest-match first.
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]


@dataclass
class Token:
    kind: str       # 'kw', 'ident', 'int', 'float', 'char', 'string', 'op', 'eof'
    text: str
    line: int
    column: int
    value: object = None  # parsed literal value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.column})"


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"',
}


#: Whitespace and complete comments, skipped in one match.  An
#: unterminated ``/*`` is left in place for the error below.
_SKIP = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)
#: Identifier continuation: ``\w`` is ``str.isalnum()`` or ``_``.
_WORD = re.compile(r"\w*")
_OPS3 = frozenset(op for op in OPERATORS if len(op) == 3)
_OPS2 = frozenset(op for op in OPERATORS if len(op) == 2)
_OPS1 = frozenset(op for op in OPERATORS if len(op) == 1)


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniC source, raising :class:`LexError` on bad input.

    Positions are 1-based; a tab is one column.  Each token's line and
    column come from the newlines between it and the previous token."""
    tokens: List[Token] = []
    i = 0
    n = len(source)
    line = 1
    line_start = 0  # index of the first character of ``line``
    synced = 0  # ``line``/``line_start`` account for source[:synced]

    while True:
        i = _SKIP.match(source, i).end()
        if i > synced:
            newlines = source.count("\n", synced, i)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", synced, i) + 1
            synced = i
        col = i - line_start + 1
        if i >= n:
            break
        ch = source[i]
        if source.startswith("/*", i):
            raise LexError("unterminated block comment", line, col)
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = _WORD.match(source, i + 1).end()
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            i = j
            continue
        # numeric literals
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                text = source[i:j]
                if j == i + 2:
                    raise LexError("malformed hex literal", line, col)
                tokens.append(Token("int", text, line, col, int(text, 16)))
                i = j
                continue
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if is_float:
                tokens.append(Token("float", text, line, col, float(text)))
            else:
                tokens.append(Token("int", text, line, col, int(text)))
            i = j
            continue
        # char literal (a raw newline inside one is counted at the next
        # token, like any other)
        if ch == "'":
            i += 1
            if i >= n:
                raise LexError("unterminated char literal", line, col)
            if source[i] == "\\":
                i += 1
                if i >= n or source[i] not in _ESCAPES:
                    raise LexError("bad escape in char literal", line, col)
                value = ord(_ESCAPES[source[i]])
            else:
                value = ord(source[i])
            i += 1
            if i >= n or source[i] != "'":
                raise LexError("unterminated char literal", line, col)
            i += 1
            tokens.append(Token("char", f"'{chr(value)}'", line, col, value))
            continue
        # string literal
        if ch == '"':
            i += 1
            chars: List[str] = []
            while i < n and source[i] != '"':
                c = source[i]
                if c == "\\":
                    i += 1
                    if i >= n or source[i] not in _ESCAPES:
                        raise LexError("bad escape in string literal", line, col)
                    chars.append(_ESCAPES[source[i]])
                elif c == "\n":
                    raise LexError("newline in string literal", line, col)
                else:
                    chars.append(c)
                i += 1
            if i >= n:
                raise LexError("unterminated string literal", line, col)
            i += 1
            text = "".join(chars)
            tokens.append(Token("string", text, line, col, text))
            continue
        # operators, longest match first
        op = source[i:i + 3]
        if op not in _OPS3:
            op = op[:2]
            if op not in _OPS2:
                op = ch
                if op not in _OPS1:
                    raise LexError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token("op", op, line, col))
        i += len(op)

    tokens.append(Token("eof", "", line, col))
    return tokens
