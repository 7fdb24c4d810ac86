"""reldepth.ordinal.load_pairs_csv against the line-by-line reference reader
in pair_loops, on random files: rows, dtype, exception type and text, and
warnings must all agree."""

import warnings

import numpy as np
import pytest

import pair_loops as loops
from reldepth.ordinal import load_pairs_csv

# single bytes and UTF-8 or invalid byte runs the random files are made of:
# digits, separators and signs, whitespace str.splitlines cuts lines at or
# keeps, quotes, letters, multi-byte and broken UTF-8, and line ends
ALPHABET = [*(str(d).encode() for d in range(10)), b",", b",", b"-", b"+", b" ", b"\t",
            b"\x0b", b"\x0c", b"\x1c", b'"', b"'", b"a", b"x", b"e", b".",
            "é".encode(), "€".encode(), b"\xff", b"\x80", b"\xc3", b"\r", b"\n", b"\r\n"]
LINE_ENDS = [b"\n", b"\r\n", b"\r"]


def junk(rng):
    return b"".join(rng.choice(ALPHABET) for _ in range(rng.integers(0, 40)))


def near_valid(rng):
    """Pair rows with blank lines between them; endpoints from a small range,
    so equal endpoints are common, a relation out of range now and then, and
    sometimes one byte run swapped for a random one."""
    end, lines = rng.choice(LINE_ENDS), []
    for _ in range(rng.integers(1, 10)):
        lines += [b""] * int(rng.integers(0, 3) * (rng.random() < 0.3))
        r = rng.choice([b"-1", b"0", b"1", b"+1", b"2", b"-2"], p=[.3, .3, .3, .04, .03, .03])
        fields = [str(v).encode() for v in rng.integers(0, 3, size=4)] + [r]
        lines.append((b", " if rng.random() < 0.1 else b",").join(fields))
    text = bytearray(end.join(lines) + end * int(rng.integers(0, 3)))
    if rng.random() < 0.3:
        at = int(rng.integers(0, len(text)))
        text[at:at + 1] = rng.choice(ALPHABET)
    return bytes(text)


def blank(rng):
    return b"".join(rng.choice(LINE_ENDS) for _ in range(rng.integers(0, 5)))


def outcome(load, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows = np.asarray(load(path))
            result = ("rows", rows.dtype, rows.shape, rows.tobytes())
        except Exception as exc:
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_the_line_by_line_reference(seed, tmp_path):
    rng = np.random.default_rng(9100 + seed)
    path = tmp_path / "pairs.csv"
    kinds = {"rows": 0, "raised": 0}
    for _ in range(600):
        make = rng.choice([junk, near_valid, near_valid, blank])
        data = make(rng)
        path.write_bytes(data)
        got = outcome(load_pairs_csv, path)
        assert got == outcome(loops.load_pairs_csv, path), data
        kinds[got[0][0]] += 1
    # both outcomes are well represented
    assert min(kinds.values()) > 100, kinds
