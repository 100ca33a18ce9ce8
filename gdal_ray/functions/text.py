"""Text analysis for large-scale training-data pipelines: language ID,
quality scoring, token counting, document fingerprinting.

All stages are vectorized ``map_batches`` transforms over Arrow string
columns; no Python-per-row loops in the hot path beyond what string
processing inherently needs. (No GDAL analog — text payload operators
required by the build brief alongside SURVEY.md §2.)
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# small public stopword seed lists per language (heuristic n-gram/stopword
# language ID — the standard trigram/stopword-voting approach)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was",
           "with", "are", "this", "have", "from"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "mit", "ein", "für",
           "auf", "den", "von", "des", "im", "sich"},
    "fr": {"le", "la", "les", "et", "des", "est", "dans", "que", "une", "pour",
           "qui", "sur", "pas", "avec", "du"},
    "es": {"el", "la", "los", "las", "y", "de", "que", "en", "un", "una",
           "es", "por", "con", "para", "no"},
    "it": {"il", "la", "di", "che", "e", "un", "una", "per", "con", "del",
           "non", "sono", "come", "anche", "nel"},
}

_WORD_RE = re.compile(r"[a-zàâäéèêëïîôöùûüçßñ]+")


def detect_language(text: str) -> str:
    """Stopword-voting language ID; 'und' (undetermined) when no vote."""
    words = _WORD_RE.findall(text.lower())
    if not words:
        return "und"
    best, best_score = "und", 0
    wset = words[:400]
    for lang, sw in _STOPWORDS.items():
        score = sum(1 for w in wset if w in sw)
        if score > best_score:
            best, best_score = lang, score
    return best


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    preds = [detect_language(t) for t in batch[text_col].to_pylist()]
    return batch.append_column("pred_lang", pa.array(preds, pa.string()))


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality features (Arrow-kernel vectorized): length, token count,
    alpha ratio, punctuation ratio, mean word length, stopword ratio."""
    texts = batch[text_col]
    n_chars = pc.utf8_length(texts)
    toks = pc.split_pattern(texts, " ")
    n_tokens = pc.list_value_length(toks)
    # per-row python only for the regex-based ratios (compiled once)
    alpha, punct, stopr = [], [], []
    for t in texts.to_pylist():
        n = max(len(t), 1)
        # ASCII letter class [a-zA-Z] to match the SQL oracle's
        # regexp_replace(text, '[^a-zA-Z]') exactly on non-ASCII text
        a = sum(("a" <= c <= "z") or ("A" <= c <= "Z") for c in t)
        p = sum(not c.isalnum() and not c.isspace() for c in t)
        words = t.lower().split()
        sw = sum(1 for w in words if w in _STOPWORDS["en"]) / max(len(words), 1)
        alpha.append(a / n)
        punct.append(p / n)
        stopr.append(sw)
    mean_wlen = pc.divide(pc.cast(n_chars, pa.float64()),
                          pc.cast(pc.max_element_wise(n_tokens, 1), pa.float64()))
    return batch.append_column("n_chars_q", pc.cast(n_chars, pa.int64())) \
        .append_column("n_tokens", pc.cast(n_tokens, pa.int64())) \
        .append_column("alpha_ratio", pa.array(alpha, pa.float64())) \
        .append_column("punct_ratio", pa.array(punct, pa.float64())) \
        .append_column("stopword_ratio", pa.array(stopr, pa.float64())) \
        .append_column("mean_word_len", mean_wlen)


_FP_BASE = np.uint64(1099511628211)
_FP_OFF = np.uint64(14695981039346656037)


def fingerprint(text: str, window: int = 64) -> int:
    """Rolling FNV-1a document fingerprint: hash of the min-sampled
    rolling window hashes (winnowing-style, deterministic)."""
    data = text.encode("utf-8")
    if not data:
        return 0
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    h = _FP_OFF
    hs = np.empty(len(arr), dtype=np.uint64)
    for i, b in enumerate(arr):  # FNV over bytes; cumulative states
        h = (h ^ b) * _FP_BASE
        hs[i] = h
    if len(hs) <= window:
        return int(hs[-1] & np.uint64(0x7FFFFFFFFFFFFFFF))
    # min-sample each window of cumulative hashes
    from numpy.lib.stride_tricks import sliding_window_view
    wins = sliding_window_view(hs, window).min(axis=1)
    out = _FP_OFF
    for v in wins[:: max(1, len(wins) // 64)]:
        out = (out ^ v) * _FP_BASE
    return int(out & np.uint64(0x7FFFFFFFFFFFFFFF))


_FP6_POW = [131 ** p for p in range(5, -1, -1)]  # 131^5 … 131^0


def fingerprint6(text: str) -> int:
    """Winnowing-style document fingerprint: MIN over every 6-codepoint
    window of the degree-5 polynomial hash sum(cp_j * 131^(5-j)).

    No modulus (max value ≈ 2.6e17 fits int64 for any unicode text), so
    an independent SQL oracle recomputes it exactly with unicode() +
    integer arithmetic. Docs shorter than 6 codepoints → -1."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    if len(cp) < 6:
        return -1
    n = len(cp) - 5
    h = np.zeros(n, np.int64)
    for j in range(6):
        h = h * 131 + cp[j:j + n]
    return int(h.min())


def fingerprint6_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    fps = [fingerprint6(t) for t in batch[text_col].to_pylist()]
    return batch.append_column("fingerprint", pa.array(fps, pa.int64()))
