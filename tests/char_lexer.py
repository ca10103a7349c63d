"""A character-by-character lexer for .ctt text: the reference that
``omegatt.surface.tokenize`` is tested against.

It walks the text one character at a time, counting lines and columns as
it goes.  Its tokens, locations and errors are the specification: a comment
does not advance the column (so the eof token after a trailing comment sits
where the comment starts), and in ``1.`` the number lexes while the dot is a
stray character.  ``$`` or ``@`` followed by ASCII digits is a shared
subterm; alone, or before any other character, it is a stray character.
"""

from __future__ import annotations

from omegatt.surface import SourceLocation, SurfaceError, Token

_PUNCT2 = ("=>", "->")
_PUNCT1 = "{}[](),;:*="
_DIGITS = "0123456789"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def here() -> SourceLocation:
        return SourceLocation(line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            col, i = col + 1, i + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        loc = here()
        if text.startswith(_PUNCT2[0], i) or text.startswith(_PUNCT2[1], i):
            tokens.append(Token("punct", text[i : i + 2], loc))
            col, i = col + 2, i + 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, loc))
            col, i = col + 1, i + 1
            continue
        if ch.isalnum() or ch == "_":
            # a word: dotted segments of word characters, e.g. an identifier,
            # a number, a position path 1.2.0, or a suspended name like 1.x
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            dotted = False
            while j + 1 < n and text[j] == "." and (text[j + 1].isalnum() or text[j + 1] == "_"):
                dotted = True
                j += 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            word = text[i:j]
            if all(seg.isdigit() for seg in word.split(".")):
                kind = "pos" if dotted else "num"
            elif dotted:
                kind = "name"
            else:
                kind = "ident"
            tokens.append(Token(kind, word, loc))
            col, i = col + (j - i), j
            continue
        if ch in "$@" and i + 1 < n and text[i + 1] in _DIGITS:
            # a shared subterm: the sigil and ASCII digits
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("share", text[i:j], loc))
            col, i = col + (j - i), j
            continue
        raise SurfaceError(loc, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", here()))
    return tokens
