"""Defining matrices and word combinatorics for shifts of finite type.

A shift of finite type over the alphabet {1, ..., n} is described by an n x n
0/1 transition matrix A: the letter j may follow the letter i exactly when
A[i][j] = 1.  Everything downstream (Cuntz-Krieger algebra relations, Fock
space bases, K-theory presentations) is driven by this matrix, so validation
lives here.

The matrix is stored once, as its transition graph: ``succ[i]``, the
letters that may follow i, ascending.  Every layer reads adjacency through
``succ`` and the cached ``pred[j]``, the letters that j may follow; 1 - A
and its amalgamation read ``succ`` alone.  The dense ``rows``, ``entry`` and
``to_json`` are rendered on demand for the readers that want the matrix
itself: the ``--json`` echo, the benchmark's input summary and oracle, and
the oracles of the test suite.

Letters are 0-based in all in-memory words and 1-based in every rendered
report, matching the usual generator labels s_1, ..., s_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import gcd


class MatrixValidationError(ValueError):
    """Base class for defining-matrix rejections."""


class NotSquareError(MatrixValidationError):
    pass


class NonBinaryEntryError(MatrixValidationError):
    pass


class ZeroRowError(MatrixValidationError):
    def __init__(self, index: int):
        super().__init__(f"row {index} is entirely zero")
        self.index = index  # 1-based


class ZeroColumnError(MatrixValidationError):
    def __init__(self, index: int):
        super().__init__(f"column {index} is entirely zero")
        self.index = index  # 1-based


class MatrixFormatError(ValueError):
    """Raised when a matrix file or string cannot be parsed."""


_ECHO_WIDTH = 40  # most characters of an offending input that a message repeats


_INT_TYPE, _BITS, _BIT_TOKENS = {int}, {0, 1}, {"0", "1"}


def _clip(text: str) -> str:
    return text if len(text) <= _ECHO_WIDTH else text[:_ECHO_WIDTH] + f"... ({len(text)} characters)"


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A validated n x n 0/1 matrix with no zero row and no zero column.

    Stored as ``succ``: ``succ[i]`` holds the letters that may follow i, in
    ascending order, so storage grows with the edges, not with n^2.
    Equality and hash use (n, succ).  ``pred`` is cached on first use;
    ``rows``, ``entry`` and ``to_json`` build the dense form on each call,
    for the ``--json`` echo, the benchmark and the test oracles.
    """

    n: int
    succ: tuple

    @cached_property
    def pred(self) -> tuple:
        """pred[j]: the letters that j may follow, in ascending order."""
        pred = [[] for _ in range(self.n)]
        for i, succ in enumerate(self.succ):
            for j in succ:
                pred[j].append(i)
        return tuple(map(tuple, pred))

    def _dense_rows(self):
        for succ in self.succ:
            row = [0] * self.n
            for j in succ:
                row[j] = 1
            yield row

    @property
    def rows(self) -> tuple:
        """The n dense rows as tuples of 0/1 ints."""
        return tuple(map(tuple, self._dense_rows()))

    def entry(self, i: int, j: int) -> int:
        return 1 if j in self.succ[i] else 0

    def transpose(self) -> "ZeroOneMatrix":
        # A zero row of the transpose would be a zero column of self, so the
        # result is valid by construction.
        return ZeroOneMatrix(self.n, self.pred)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": list(self._dense_rows())}


def validate_matrix(raw) -> ZeroOneMatrix:
    """Validate a raw integer matrix, an iterable of rows, as a defining matrix.

    Rejects non-square input, entries outside {0, 1}, and any all-zero row or
    column (indices in errors are 1-based), in that order.  Each row is read
    as it is, and only its successor list is kept.
    """
    rows = [r if isinstance(r, (list, tuple)) else tuple(r) for r in raw]
    n = len(rows)
    if n == 0:
        raise NotSquareError("matrix is empty")
    for r in rows:
        if len(r) != n:
            raise NotSquareError(f"expected {n} columns per row, got {len(r)}")
    # two C-level set tests per row; only a row that fails them is walked,
    # for the first offender.  The type test comes first: True and 1.0 are
    # in {0, 1}, and an unhashable entry must not reach the value test.
    letters, succ = range(n), []
    for r in rows:
        if not (_INT_TYPE.issuperset(map(type, r)) and _BITS.issuperset(r)):
            for e in r:
                if not isinstance(e, int) or isinstance(e, bool) or e not in (0, 1):
                    raise NonBinaryEntryError(f"entry {_clip(repr(e))} is not 0 or 1")
        succ.append(tuple(compress(letters, r)))
    for i, s in enumerate(succ):
        if not s:
            raise ZeroRowError(i + 1)
    covered = set(chain.from_iterable(succ))
    if len(covered) < n:
        raise ZeroColumnError(min(set(letters) - covered) + 1)
    return ZeroOneMatrix(n, tuple(succ))


def _levels(adj) -> dict:
    """Breadth-first levels from letter 0 along ``adj``: the fewest steps from
    0 to each letter it reaches."""
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def is_irreducible(a: ZeroOneMatrix) -> bool:
    """True iff the transition graph is strongly connected."""
    return len(_levels(a.succ)) == a.n and len(_levels(a.pred)) == a.n


def is_aperiodic(a: ZeroOneMatrix) -> bool:
    """True iff some power of the matrix is entrywise positive.

    Checked as strong connectivity plus gcd of cycle lengths equal to 1: with
    BFS levels from any vertex, the period of a strongly connected graph is
    gcd(level[u] + 1 - level[v]) over all edges u -> v.
    """
    if not is_irreducible(a):
        return False
    level = _levels(a.succ)
    g = 0
    for u, vs in enumerate(a.succ):
        for v in vs:
            g = gcd(g, level[u] + 1 - level[v])
    return abs(g) == 1


def satisfies_cantor_condition(a: ZeroOneMatrix) -> bool:
    """Cuntz-Krieger condition (I): every cycle of the transition graph has
    an exit, an edge that leaves it.

    For a valid matrix this holds exactly when the shift space has no
    isolated point, that is, when it is a Cantor set.  A cycle with no exit
    is a cycle of letters with one successor each, so one walk along the
    letters of out-degree 1, each passed once, finds it.
    """
    walk = [None] * a.n  # the walk that first passed each letter of out-degree 1
    for start in range(a.n):
        v = start
        while walk[v] is None and len(a.succ[v]) == 1:
            walk[v] = start
            v = a.succ[v][0]
        if walk[v] == start:
            return False
    return True


def _join(left, right, succ) -> list:
    """The words u v, with u in ``left[i]`` and v in ``right[j]`` for each
    letter j that may follow the last letter of u, grouped by first letter i.

    Both arguments hold one lexicographically ordered list per first letter,
    and so does the result: u ascends, then j, then v.
    """
    return [[u + v for u in us for j in succ[u[-1]] for v in right[j]] for us in left]


def enumerate_words(a: ZeroOneMatrix, lo: int, hi: int | None = None) -> list:
    """All admissible words of lengths lo..hi (hi defaults to lo), shortest
    first and in lexicographic order within a length: the Fock basis order.

    Length 0 holds the singleton empty word.  A word of length p + q is a
    word of length p followed by a word of length q that its last letter may
    precede, so length lo is reached by doubling: one join per binary digit
    of lo, and one more for each digit 1.  Each longer length appends one
    letter.  The number of words never falls as the length grows, and the
    joins below lo at least double the length at every other step, so
    together they copy at most four times the letters of length lo: no
    prefix is copied once per length step.
    """
    if hi is None:
        hi = lo
    if not 0 <= lo <= hi:
        raise ValueError("word lengths must satisfy 0 <= lo <= hi")
    words = [()] if lo == 0 else []
    if hi == 0:
        return words
    succ = a.succ
    single = [[(i,)] for i in range(a.n)]
    by_first = single
    m = max(lo, 1)
    for digit in bin(m)[3:]:
        by_first = _join(by_first, by_first, succ)
        if digit == "1":
            by_first = _join(by_first, single, succ)
    level = list(chain.from_iterable(by_first))
    words += level
    for _ in range(m, hi):
        level = [w + (j,) for w in level for j in succ[w[-1]]]
        words += level
    return words


def count_words(a: ZeroOneMatrix, m: int) -> int:
    """Number of admissible words of length m: the total of all entries of
    the (m-1)-th matrix power for m >= 1, and 1 for m = 0."""
    if m < 0:
        raise ValueError("word length must be >= 0")
    if m == 0:
        return 1
    row_sums = [1] * a.n
    for _ in range(m - 1):
        row_sums = [sum(row_sums[j] for j in succ) for succ in a.succ]
    return sum(row_sums)


def count_letters(a: ZeroOneMatrix, lo: int, hi: int, limit: int) -> int:
    """Letters held by all admissible words of lengths lo..hi: the sum of
    count_words(a, m) * m.  Counting stops once the total is known to pass
    ``limit``, and a result above ``limit`` is then a lower bound.

    A valid matrix has no zero row, so every word extends and the number of
    words never falls as the length grows.  So at every m < hi the total is
    at least the letters counted so far plus count_words(a, m) * hi, and a
    length hi above ``limit`` passes it before any counting: the count takes
    at most ``limit`` steps.  Once the row sums (the words of the current
    length by first letter) repeat, every longer length has the same count,
    and the rest of the total is summed in closed form; so a permutation
    matrix, whose count never grows, takes one step.
    """
    if hi > limit:
        return hi
    total, row_sums = 0, [1] * a.n
    for m in range(1, hi + 1):
        c = sum(row_sums)
        if m >= lo:
            total += c * m
        if m < hi:
            if total + c * hi > limit:
                return total + c * hi
            nxt = [sum(row_sums[j] for j in succ) for succ in a.succ]
            if nxt == row_sums:
                start = max(m + 1, lo)  # the lengths start..hi, each with c words
                return total + c * (hi * (hi + 1) - start * (start - 1)) // 2
            row_sums = nxt
    return total


def word_str(word, n: int = 9) -> str:
    """Render a word over the letters {1, ..., n}, 1-based.

    Over ten or more letters every word of two or more letters is
    dot-separated, so distinct words of one alphabet render distinctly;
    over at most nine, the default, the digits are written together.
    """
    letters = [str(i + 1) for i in word]
    return ".".join(letters) if n >= 10 else "".join(letters)


def parse_matrix_json(text: str) -> ZeroOneMatrix:
    """Parse the JSON matrix format {"n": <int>, "rows": [[0|1, ...], ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        # an integer literal past Python's limit on int-string conversion,
        # raised before the int is built
        raise MatrixFormatError(f"integer literal too long: {exc}") from exc
    except RecursionError as exc:
        raise MatrixFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "rows"}:
        raise MatrixFormatError('expected an object with exactly the keys "n" and "rows"')
    n, rows = obj["n"], obj["rows"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise MatrixFormatError(f'"n" must be an integer, got {_clip(repr(n))}')
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixFormatError('"n" must match the number of rows')
    if not all(isinstance(r, list) and len(r) == n for r in rows):
        raise MatrixFormatError(f"every row must be a list of {n} entries")
    return validate_matrix(rows)


def parse_matrix_text(text: str) -> ZeroOneMatrix:
    """Parse the plain-text format: n lines of n space-separated 0/1 digits.

    Leading and trailing whitespace-only lines are tolerated; anything else
    after the n-th row is rejected as garbage.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise MatrixFormatError("empty matrix file")
    n = len(lines[0].split())
    if len(lines) != n:
        raise MatrixFormatError(f"expected {n} rows to match {n} columns, got {len(lines)}")
    rows = []
    for line in lines:
        toks = line.split()
        if len(toks) != n:
            raise MatrixFormatError(f"expected {n} entries per row, got {len(toks)}")
        if not _BIT_TOKENS.issuperset(toks):
            raise MatrixFormatError(f"non-0/1 token in row: {_clip(repr(line.strip()))}")
        # validate_matrix keeps only the row's successor list
        rows.append(tuple(map(int, toks)))
    return validate_matrix(rows)


def load_matrix(path: str) -> ZeroOneMatrix:
    """Load a defining matrix from a JSON or plain-text file."""
    # utf-8-sig drops a leading byte-order mark, which would hide a JSON "{"
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"matrix file is not UTF-8: {exc}") from exc
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)
