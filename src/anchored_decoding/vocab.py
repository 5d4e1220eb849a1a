"""Token vocabulary: ids, reserved mask/stop tokens, and the toy bijective tokenizer."""

from __future__ import annotations

from dataclasses import dataclass, field

from .anchoring import is_int

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789+-*/=()<>,.:; "


@dataclass(frozen=True)
class VocabSpec:
    """Vocabulary contract shared by all backends.

    ``token_strings`` (id -> surface string) exists for the toy backend and
    for a remote backend whose server sends them: it maps every id in
    0..size-1 to a non-empty string, no two ids alike, so detokenize is
    defined for every id. tokenize never yields the mask or a stop id and
    detokenize drops them, so detokenize(tokenize(text)) == text for every
    text tokenize accepts. Without it the vocabulary is an opaque id space.
    ``size``, ``mask_id`` and each stop id follow the int rule,
    ``anchoring.is_int``.
    """

    size: int
    mask_id: int
    stop_ids: frozenset[int]
    token_strings: dict[int, str] | None = field(default=None)

    def __post_init__(self):
        if not (is_int(self.size) and self.size >= 1):
            raise ValueError("vocab size must be a positive int")
        if not (is_int(self.mask_id) and 0 <= self.mask_id < self.size):
            raise ValueError("mask_id must be an int in range")
        if not all(is_int(s) and 0 <= s < self.size for s in self.stop_ids):
            raise ValueError("stop_ids must be ints in range")
        if self.token_strings is not None:
            if set(self.token_strings) != set(range(self.size)):
                raise ValueError(f"token_strings keys must be exactly 0..{self.size - 1}")
            strings = list(self.token_strings.values())
            if not all(isinstance(s, str) and s for s in strings) or len(set(strings)) != len(strings):
                raise ValueError("token_strings must be distinct non-empty strings")

    @staticmethod
    def toy(size: int, alphabet: str = DEFAULT_ALPHABET) -> "VocabSpec":
        """id 0 is the mask token, id 1 the stop token, the rest single characters."""
        if size < 3:
            raise ValueError("toy vocab needs at least 3 tokens")
        if size - 2 > len(alphabet):
            raise ValueError("alphabet too small for requested vocab size")
        strings = {0: "<mask>", 1: "<eos>"}
        for i in range(2, size):
            strings[i] = alphabet[i - 2]
        return VocabSpec(size=size, mask_id=0, stop_ids=frozenset({1}), token_strings=strings)

    def tokenize(self, text: str) -> list[int]:
        """Greedy longest-match tokenization; raises naming the untokenizable tail.
        Text never yields the mask or a stop id: their surface strings are not in the table."""
        if self.token_strings is None:
            raise ValueError("vocabulary has no surface strings")
        table = {s: i for i, s in self.token_strings.items() if i != self.mask_id and i not in self.stop_ids}
        max_len = max(map(len, table), default=0)
        out: list[int] = []
        pos = 0
        while pos < len(text):
            for length in range(min(max_len, len(text) - pos), 0, -1):
                tok = table.get(text[pos : pos + length])
                if tok is not None:
                    out.append(tok)
                    pos += length
                    break
            else:
                raise ValueError(f"cannot tokenize substring {text[pos:pos + 10]!r} at offset {pos}")
        return out

    def detokenize(self, tokens) -> str:
        """Surface string of a token sequence; specials (mask/stop) are dropped."""
        if self.token_strings is None:
            raise ValueError("vocabulary has no surface strings")
        return "".join(
            self.token_strings[t] for t in tokens if t != self.mask_id and t not in self.stop_ids
        )
