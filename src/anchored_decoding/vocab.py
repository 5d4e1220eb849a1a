"""Token vocabulary: ids, reserved mask/stop tokens, and the toy bijective tokenizer."""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789+-*/=()<>,.:; "


@dataclass(frozen=True)
class VocabSpec:
    """Vocabulary contract shared by all backends.

    ``token_strings`` (id -> surface string, bijective) exists for the toy
    backend and for a remote backend whose server sends them; without it the
    vocabulary is an opaque id space.
    """

    size: int
    mask_id: int
    stop_ids: frozenset[int]
    token_strings: dict[int, str] | None = field(default=None)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("vocab size must be positive")
        if not (0 <= self.mask_id < self.size):
            raise ValueError("mask_id out of range")
        if any(not (0 <= s < self.size) for s in self.stop_ids):
            raise ValueError("stop_ids out of range")
        if self.token_strings is not None:
            if set(self.token_strings) - set(range(self.size)):
                raise ValueError("token_strings keys out of range")
            strings = list(self.token_strings.values())
            if len(set(strings)) != len(strings):
                raise ValueError("token_strings must be a bijection")

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

    def string_to_id(self) -> dict[str, int]:
        if self.token_strings is None:
            raise ValueError("vocabulary has no surface strings")
        return {s: i for i, s in self.token_strings.items()}

    def tokenize(self, text: str) -> list[int]:
        """Greedy longest-match tokenization; raises naming the untokenizable tail."""
        table = self.string_to_id()
        max_len = max(len(s) for s in table)
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
