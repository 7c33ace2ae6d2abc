"""WordPiece tokenization with special tokens, padding, and truncation."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

MAX_WORD_CHARS = 100


class VocabularyError(ValueError):
    """Raised for malformed vocabulary files (duplicates, missing specials)."""


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self.token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self.token_to_id[SEP]


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length encoding: ids and mask padded to max_len, tokens unpadded."""

    input_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    tokens: tuple[str, ...]

    @property
    def real_length(self) -> int:
        return sum(self.attention_mask)


def load_vocabulary(path: str) -> Vocabulary:
    """One UTF-8 token per line, after any byte-order mark; 0-based line number is the id."""
    tokens: list[str] = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                token = line.rstrip("\r\n")
                if not token:
                    raise VocabularyError(f"{path}: blank line at id {len(tokens)}")
                tokens.append(token)
    except UnicodeDecodeError as exc:
        raise VocabularyError(f"{path}: not UTF-8 text ({exc})") from exc
    token_to_id = {tok: i for i, tok in enumerate(tokens)}
    if len(token_to_id) != len(tokens):
        raise VocabularyError(f"{path}: duplicate tokens present")
    missing = [s for s in SPECIAL_TOKENS if s not in token_to_id]
    if missing:
        raise VocabularyError(f"{path}: missing special tokens {missing}")
    return Vocabulary(token_to_id=token_to_id, id_to_token=tuple(tokens))


def _is_punctuation(ch: str) -> bool:
    cp = ord(ch)
    # ASCII non-alphanumerics count as punctuation even when Unicode says
    # otherwise ($, `, ^ ...), so URLs and code-ish text split predictably.
    if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def _is_whitespace(ch: str) -> bool:
    if ch in (" ", "\t", "\n", "\r"):
        return True
    return unicodedata.category(ch) == "Zs"


def _is_control(ch: str) -> bool:
    if ch in ("\t", "\n", "\r"):
        return False
    return unicodedata.category(ch).startswith("C")


class _PretokenizeTable(dict):
    """str.translate table of pretokenize, filled as code points are first
    seen: accents (Mn) and control characters map to "", whitespace to " ",
    punctuation to " p ", and every other character to itself."""

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        if unicodedata.category(ch) == "Mn" or _is_control(ch):
            out = ""
        elif _is_whitespace(ch):
            out = " "
        elif _is_punctuation(ch):
            out = f" {ch} "
        else:
            out = ch
        self[cp] = out
        return out


_PRETOKENIZE = _PretokenizeTable()


def pretokenize(text: str) -> list[str]:
    """Lowercase, strip accents, and split into words and standalone punctuation.

    Splits on " " only: the table has turned every whitespace character
    into one, and str.split() would also split on characters it keeps
    inside words (U+2028, U+2029)."""
    text = unicodedata.normalize("NFD", text.lower()).translate(_PRETOKENIZE)
    return [word for word in text.split(" ") if word]


def split_word(word: str, token_to_id: dict) -> list[str]:
    """Greedy longest-prefix-match decomposition of one word.

    Continuation pieces carry the "##" prefix. A word with no full
    decomposition (or longer than MAX_WORD_CHARS) collapses to [UNK].
    """
    n = len(word)
    if n > MAX_WORD_CHARS:
        return [UNK]
    pieces: list[str] = []
    start = 0
    while start < n:
        end = n
        found = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in token_to_id:
                found = sub
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Lowercase/split text and greedily decompose each word into pieces."""
    pieces: list[str] = []
    for word in pretokenize(text):
        pieces.extend(split_word(word, vocab.token_to_id))
    return pieces


def encode(text: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """[CLS] + pieces + [SEP], truncated from the end, padded to max_len."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    pieces = wordpiece_tokenize(text, vocab)[: max_len - 2]
    tokens = [CLS] + pieces + [SEP]
    ids = [vocab.token_to_id[t] for t in tokens]
    n_real = len(ids)
    ids.extend([vocab.pad_id] * (max_len - n_real))
    mask = [1] * n_real + [0] * (max_len - n_real)
    return TokenSequence(
        input_ids=tuple(ids), attention_mask=tuple(mask), tokens=tuple(tokens)
    )
