"""Reference MiniC lexer for differential tests.

It moves through the source one character per ``advance()`` call,
tracking line and column as it goes: slow, but its positions are correct
by construction.  :func:`repro.minic.lexer.tokenize` must produce the
same tokens, and the same ``LexError`` message, line and column.
"""

from typing import List

from repro.errors import LexError
from repro.minic.lexer import _ESCAPES, KEYWORDS, OPERATORS, Token


def reference_tokenize(source: str) -> List[Token]:
    """The character-at-a-time lexer ``tokenize`` must agree with."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r\n":
            advance()
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance()
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        tok_line, tok_col = line, col
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, tok_line, tok_col))
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
                    raise LexError("malformed hex literal", tok_line, tok_col)
                advance(j - i)
                tokens.append(Token("int", text, tok_line, tok_col, int(text, 16)))
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
            advance(j - i)
            if is_float:
                tokens.append(Token("float", text, tok_line, tok_col, float(text)))
            else:
                tokens.append(Token("int", text, tok_line, tok_col, int(text)))
            continue
        # char literal
        if ch == "'":
            advance()
            if i >= n:
                raise LexError("unterminated char literal", tok_line, tok_col)
            if source[i] == "\\":
                advance()
                if i >= n or source[i] not in _ESCAPES:
                    raise LexError("bad escape in char literal", tok_line, tok_col)
                value = ord(_ESCAPES[source[i]])
                advance()
            else:
                value = ord(source[i])
                advance()
            if i >= n or source[i] != "'":
                raise LexError("unterminated char literal", tok_line, tok_col)
            advance()
            tokens.append(Token("char", f"'{chr(value)}'", tok_line, tok_col, value))
            continue
        # string literal
        if ch == '"':
            advance()
            chars: List[str] = []
            while i < n and source[i] != '"':
                if source[i] == "\\":
                    advance()
                    if i >= n or source[i] not in _ESCAPES:
                        raise LexError("bad escape in string literal", tok_line, tok_col)
                    chars.append(_ESCAPES[source[i]])
                elif source[i] == "\n":
                    raise LexError("newline in string literal", tok_line, tok_col)
                else:
                    chars.append(source[i])
                advance()
            if i >= n:
                raise LexError("unterminated string literal", tok_line, tok_col)
            advance()
            text = "".join(chars)
            tokens.append(Token("string", text, tok_line, tok_col, text))
            continue
        # operators
        for op in OPERATORS:
            if source.startswith(op, i):
                advance(len(op))
                tokens.append(Token("op", op, tok_line, tok_col))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", tok_line, tok_col)

    tokens.append(Token("eof", "", line, col))
    return tokens
