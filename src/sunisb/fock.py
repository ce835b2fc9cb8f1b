"""Exact multi-oscillator Fock spaces.

The state space of rank N is generated by N-1 independent oscillator
N-plets: one creation operator for every oscillator type i in 1..N-1
and color alpha in 1..N.  States are kept in the unnormalized monomial
basis |n> = (a+)^n |0>, in which

    a+ |n> = |n+1>        a |n> = n |n-1>

so the canonical commutator [a, a+] = 1 holds while every matrix
element downstream stays an exact rational number; square roots never
appear.  ``inner_product`` restores the factorial weights of this
basis, which makes a and a+ mutual adjoints.

Kets are immutable values; every operation returns a new Ket.  All
functions here are pure, so values can be shared freely between
threads.

States are hash-consed: every route that builds a ``FockState`` returns
the one canonical object for its occupation matrix, so a state-keyed
dict lookup hits by identity.  Equality stays value-based and the hash
stays ``hash((n, occ))``.  The table ``_STATES`` lives as long as the
process, like ``isb._create_terms``.

``dumps_ket`` writes exactly the bytes of
``json.dumps(ket_to_document(psi), indent=1)`` plus a newline, but
directly: before Python 3.13 an indented ``json.dumps`` runs the
pure-Python encoder, several times slower than the direct writer.

Kets are summed by two private kernels here and one in ``algebra``:

* ``_apply_images`` maps a ket by an integer rule on basis states,
  ``(terms, den)``, and divides each output coefficient once.  Every
  operator that ``algebra``, ``isb`` and ``su3x`` define, bar
  ``invariant_action``, is such a rule: the su(N) and
  triplet/antitriplet generators, the Casimirs, the dressed ladders of
  both languages, the rank-4 gluing route, the pair ladders and the
  pair level.  It sums its integer products inline, on the figure in
  its docstring;
* ``_accumulate`` adds (state, coeff) pairs into a dict: ket
  construction, addition and subtraction, the per-state image tables
  of the ``algebra`` suite, and the compositions inside the Casimir
  rule and the gluing rule;
* ``algebra._bilinear_into`` sums the image of an invariant bilinear
  in place, for ``invariant_action`` and the row sums of the dressed
  ladders, kept on its own figure (see ``_accumulate``).

``apply_create`` and ``apply_annihilate`` stay comprehensions: they
relabel each state once, so no two terms meet and there is nothing to
sum; routed through ``_apply_images`` they made the default ``fock``
suite slower.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm
from typing import Iterable, Iterator

__all__ = [
    "FockState",
    "Ket",
    "vacuum",
    "zero_ket",
    "basis_ket",
    "apply_create",
    "apply_annihilate",
    "inner_product",
    "total_occupations",
    "color_totals",
    "factorial_weight",
    "enumerate_sector",
    "sector_size",
    "ket_to_document",
    "ket_from_document",
    "dumps_ket",
    "loads_ket",
    "format_ket",
    "SERIALIZATION_CONVENTION",
]

SERIALIZATION_CONVENTION = "unnormalized-monomial"


def _exact_int(value, what: str) -> int:
    """value itself if its type is exactly ``int``; ``ValueError`` otherwise (``bool`` included)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def _check_rank(n) -> None:
    """``ValueError`` unless n is an ``int`` group rank of at least 2."""
    if _exact_int(n, "group rank") < 2:
        raise ValueError(f"group rank must be at least 2, got {n}")


class FockState:
    """One basis state: an (N-1) x N matrix of occupation numbers.

    Rows are oscillator types, columns are colors.  Instances are
    immutable values, hashable, and validated on construction; equal
    matrices give the same object (see ``_unchecked_state``).
    """

    __slots__ = ("n", "occ", "_hash")

    def __new__(cls, n: int, occ: Iterable[Iterable[int]]) -> "FockState":
        occ = tuple(tuple(_exact_int(e, "occupation") for e in row) for row in occ)
        _check_rank(n)
        if len(occ) != n - 1 or any(len(row) != n for row in occ):
            raise ValueError(f"occupation matrix must be {n - 1}x{n}")
        if any(e < 0 for row in occ for e in row):
            raise ValueError("occupations must be non-negative")
        return _unchecked_state(n, occ)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so they return the canonical state
        return FockState, (self.n, self.occ)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FockState):
            return NotImplemented
        return self.n == other.n and self.occ == other.occ

    def __repr__(self) -> str:
        return f"FockState({self.n}, {self.occ})"


# occ -> its canonical FockState; occ's shape fixes n, so occ alone is the key
_STATES: dict = {}


def _unchecked_state(n: int, occ: tuple[tuple[int, ...], ...]) -> FockState:
    # Trusted fast path: callers guarantee shape and non-negativity.
    s = _STATES.get(occ)
    if s is None:
        s = object.__new__(FockState)
        s.n = n
        s.occ = occ
        s._hash = hash((n, occ))
        s = _STATES.setdefault(occ, s)
    return s


def _bumped(state: FockState, i: int, alpha: int, delta: int) -> FockState:
    occ = state.occ
    row = occ[i - 1]
    new_row = row[: alpha - 1] + (row[alpha - 1] + delta,) + row[alpha:]
    return _unchecked_state(state.n, occ[: i - 1] + (new_row,) + occ[i:])


def _moved(state: FockState, src: int, dst: int, alpha: int) -> FockState:
    """One quantum of color alpha moved from row src to row dst."""
    if src == dst:
        return state
    occ = list(state.occ)
    a = alpha - 1
    row = occ[src - 1]
    occ[src - 1] = row[:a] + (row[a] - 1,) + row[a + 1 :]
    row = occ[dst - 1]
    occ[dst - 1] = row[:a] + (row[a] + 1,) + row[a + 1 :]
    return _unchecked_state(state.n, tuple(occ))


def _recolored(state: FockState, i: int, beta: int, alpha: int) -> FockState:
    """One quantum in row i recolored from beta to alpha."""
    if beta == alpha:
        return state
    occ = state.occ
    row = list(occ[i - 1])
    row[beta - 1] -= 1
    row[alpha - 1] += 1
    return _unchecked_state(state.n, occ[: i - 1] + (tuple(row),) + occ[i:])


class Ket:
    """Finite linear combination of FockStates with exact coefficients.

    Coefficients must be ints or Fractions (``bool`` and ``float`` raise
    ``ValueError``); zero terms are pruned on construction, so equality
    of ``terms`` dicts is exact state equality.  Treat instances as
    frozen.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        _check_rank(n)
        items = list(terms.items() if isinstance(terms, dict) else terms or ())
        for state, coeff in items:
            if not isinstance(state, FockState) or state.n != n:
                raise ValueError(f"every state of a rank-{n} ket must be a rank-{n} FockState")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                raise ValueError(f"coefficients must be int or Fraction, got {coeff!r}")
        self.n = n
        self.terms = _accumulate({}, items)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: "Ket") -> "Ket":
        return self._combined(other, 1)

    def __sub__(self, other: "Ket") -> "Ket":
        return self._combined(other, -1)

    def _combined(self, other, sign: int) -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("cannot mix group ranks in one ket")
        return _raw_ket(self.n, _accumulate(dict(self.terms), other.terms.items(), sign))

    def __neg__(self) -> "Ket":
        return _raw_ket(self.n, {s: -c for s, c in self.terms.items()})

    def __mul__(self, scalar) -> "Ket":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return _raw_ket(self.n, {})
        return _raw_ket(self.n, {s: c * scalar for s, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Ket":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ValueError("Ket division by zero")
        return self.__mul__(Fraction(1, 1) / scalar)

    def __repr__(self) -> str:
        return f"<Ket N={self.n}, {len(self.terms)} terms>"


def _accumulate(acc: dict, terms, scale=1) -> dict:
    """Add scale * coeff into acc for every (state, coeff) of terms, in place; return acc.

    States whose total reaches zero are dropped.  Two inline copies of
    this loop are kept, each on its own figure: ``_apply_images`` (see
    there), and ``algebra._bilinear_into``, which sums each invariant
    bilinear in place, for ``invariant_action`` and every row sum of
    the dressed ladders.  For the latter, against the same code passing
    its terms to this function as a generator expression, build-sample
    ``pass_s`` is 0.2275 s inline against 0.2414 s (medians), lower in
    8 of 10 alternated 30-second harness pairs, with an IQR of 0.0082 s
    over the inline runs (2-core x86 box, Python 3.11).
    """
    # only an int scale is tested for 1: comparing a Fraction to 1 costs more than it saves
    unit = type(scale) is int and scale == 1
    for state, coeff in terms:
        total = acc.get(state, 0) + (coeff if unit else coeff * scale)
        if total:
            acc[state] = total
        else:
            acc.pop(state, None)
    return acc


def _apply_images(psi: Ket, on_basis, *args) -> Ket:
    """The linear extension to psi of ``on_basis(*args, state) -> (terms, den)``, terms over ints.

    The image of a basis state is the sum of coeff / den |s> over the
    (s, coeff) pairs of terms.  Every input coefficient and image
    denominator is brought to one common denominator, the integer
    products are summed, and each output coefficient is divided once:
    an ``int`` when the division is exact, a ``Fraction`` otherwise.
    Every ladder and operator kept as integer basis images sums here.

    The products are summed inline, a copy of ``_accumulate``'s loop.
    Against passing each image to ``_accumulate``, verify-all ``pass_s``
    is 0.4341 s inline against 0.4381 s (medians), lower in 7 of 8
    alternated 30-second harness pairs, a gap inside the IQR of the
    runs without it (0.0120 s; 0.0057 s inline), and build-sample
    reads 0.2468 s against 0.2491 s, lower in 5 of 5 (2-core x86 box,
    Python 3.11).  There is no one-term branch: skipping the list and
    the ``lcm`` for a one-term ket, inline or through ``_accumulate``,
    left the kernel's own time on a build-sample pass unchanged (about
    21 ms) but read build-sample ``pass_s`` slower in 20 of 20 harness
    pairs (median +5.5%).
    """
    pieces = [(c, *on_basis(*args, s)) for s, c in psi.terms.items()]
    common = lcm(*(c.denominator * den for c, _, den in pieces))
    acc: dict = {}
    for c, terms, den in pieces:
        scale = c.numerator * (common // (c.denominator * den))
        for state, coeff in terms:
            total = acc.get(state, 0) + coeff * scale
            if total:
                acc[state] = total
            else:
                acc.pop(state, None)
    if common != 1:
        for state, v in acc.items():
            acc[state] = v // common if v % common == 0 else Fraction(v, common)
    return _raw_ket(psi.n, acc)


def _raw_ket(n: int, terms: dict) -> Ket:
    # Trusted fast path: terms already pruned and rank-consistent.
    k = Ket.__new__(Ket)
    k.n = n
    k.terms = terms
    return k


def zero_ket(n: int) -> Ket:
    _check_rank(n)
    return _raw_ket(n, {})


def vacuum(n: int) -> Ket:
    """The Fock vacuum |0> for rank n, with coefficient one."""
    _check_rank(n)
    empty = _unchecked_state(n, ((0,) * n,) * (n - 1))
    return _raw_ket(n, {empty: 1})


def basis_ket(state: FockState) -> Ket:
    return _raw_ket(state.n, {state: 1})


# an index is an int in range: a float or bool one raises here, not as a TypeError deeper in
def _check_row(n: int, i: int) -> None:
    if type(i) is not int or not 1 <= i <= n - 1:
        raise IndexError(f"oscillator type must lie in 1..{n - 1}, got {i}")


def _check_color(n: int, alpha: int) -> None:
    if type(alpha) is not int or not 1 <= alpha <= n:
        raise IndexError(f"color must lie in 1..{n}, got {alpha}")


def _check_slot(n: int, i: int, alpha: int) -> None:
    _check_row(n, i)
    _check_color(n, alpha)


def apply_create(i: int, alpha: int, psi: Ket) -> Ket:
    """Apply a+[i]^alpha: raise one occupation, coefficient unchanged."""
    _check_slot(psi.n, i, alpha)
    return _raw_ket(psi.n, {_bumped(s, i, alpha, 1): c for s, c in psi.terms.items()})


def apply_annihilate(i: int, alpha: int, psi: Ket) -> Ket:
    """Apply a[i]_alpha: lower one occupation, coefficient times old occupation."""
    _check_slot(psi.n, i, alpha)
    out = {}
    for s, c in psi.terms.items():
        m = s.occ[i - 1][alpha - 1]
        if m:
            out[_bumped(s, i, alpha, -1)] = m * c
    return _raw_ket(psi.n, out)


def total_occupations(state: FockState) -> tuple[int, ...]:
    """Row totals (n_1, ..., n_{N-1}): the per-type number operator eigenvalues."""
    return tuple(sum(row) for row in state.occ)


def color_totals(state: FockState) -> tuple[int, ...]:
    """Column totals: quanta of each color, summed over oscillator types."""
    return tuple(map(sum, zip(*state.occ)))


def factorial_weight(state: FockState) -> int:
    """Squared norm of an unnormalized basis state: the product of occupation factorials."""
    w = 1
    for row in state.occ:
        for e in row:
            if e > 1:
                w *= factorial(e)
    return w


def inner_product(phi: Ket, psi: Ket) -> Fraction:
    """Hermitian inner product with factorial weights.

    <phi|psi> = sum over common basis states of
    coeff_phi * coeff_psi * product of occupation factorials.
    Coefficients are rational throughout, so no conjugation is needed,
    and a[i]_alpha is the exact adjoint of a+[i]^alpha in this product.
    """
    if phi.n != psi.n:
        raise ValueError("cannot mix group ranks in an inner product")
    small, big = phi.terms, psi.terms
    if len(big) < len(small):
        small, big = big, small
    total = 0
    for s, c in small.items():
        d = big.get(s)
        if d is not None:
            total += c * d * factorial_weight(s)
    return Fraction(total)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_sector(n: int, totals: Iterable[int]) -> list[FockState]:
    """All basis states with the given row totals, in lexicographic order.

    The order is lexicographic on the flattened occupation matrix, so
    it is reproducible across runs and platforms.
    """
    totals = _sector_totals(n, totals)
    per_row = [list(_compositions(t, n)) for t in totals]
    return [_unchecked_state(n, rows) for rows in product(*per_row)]


def sector_size(n: int, totals: Iterable[int]) -> int:
    """Closed-form count of ``enumerate_sector``: a product of binomials."""
    count = 1
    for t in _sector_totals(n, totals):
        count *= comb(t + n - 1, n - 1)
    return count


def _sector_totals(n: int, totals: Iterable[int]) -> tuple[int, ...]:
    """The row totals of a rank-n sector as a tuple; ``ValueError`` unless both are valid."""
    _check_rank(n)
    totals = tuple(_exact_int(t, "row total") for t in totals)
    if len(totals) != n - 1:
        raise ValueError(f"need {n - 1} row totals for rank {n}, got {len(totals)}")
    if any(t < 0 for t in totals):
        raise ValueError("row totals must be non-negative")
    return totals


def _sorted_terms(psi: Ket) -> Iterator[tuple[FockState, int, int]]:
    """(state, numerator, denominator) of every term, sorted by occupation matrix."""
    for state, c in sorted(psi.terms.items(), key=lambda term: term[0].occ):
        if type(c) is int:
            yield state, c, 1
        else:
            yield state, c.numerator, c.denominator


def ket_to_document(psi: Ket) -> dict:
    """Plain-data document for a ket.

    Terms are sorted lexicographically by occupation matrix and
    numerator/denominator are decimal strings, so the document is
    deterministic and safe for arbitrarily large integers.
    """
    terms = [
        {"occ": [list(row) for row in state.occ], "num": str(num), "den": str(den)}
        for state, num, den in _sorted_terms(psi)
    ]
    return {"N": psi.n, "convention": SERIALIZATION_CONVENTION, "terms": terms}


def ket_from_document(doc: dict) -> Ket:
    """Inverse of ``ket_to_document``: every document it accepts round-trips unchanged.

    Anything ``ket_to_document`` cannot write raises ``ValueError``: a missing
    or extra key, a wrong type or shape, a rank below 2, a zero coefficient,
    a fraction not in lowest terms over a positive denominator, a repeated or
    unsorted state.
    """
    if not isinstance(doc, dict) or doc.keys() != {"N", "convention", "terms"}:
        raise ValueError("a ket document is a dict with the keys N, convention and terms")
    if doc["convention"] != SERIALIZATION_CONVENTION:
        raise ValueError(f"unsupported ket convention: {doc['convention']!r}")
    n, records = doc["N"], doc["terms"]
    if type(n) is not int or type(records) is not list:
        raise ValueError("a ket document needs an int N and a list of terms")
    _check_rank(n)  # a ket without terms builds no state that would check it
    terms = {}
    last = ()
    for record in records:
        if not isinstance(record, dict) or record.keys() != {"occ", "num", "den"}:
            raise ValueError("a term record is a dict with the keys occ, num and den")
        occ = record["occ"]
        if type(occ) is not list or any(type(row) is not list for row in occ):
            raise ValueError(f"occ must be a list of lists, got {occ!r}")
        state = FockState(n, occ)
        if state.occ <= last:
            raise ValueError(f"state {state.occ} is repeated or out of order in the ket document")
        last = state.occ
        num, den = record["num"], record["den"]
        if type(num) is not str or type(den) is not str or int(den) <= 0:
            raise ValueError(f"num and den must be decimal strings, den positive; got {num!r}, {den!r}")
        coeff = Fraction(int(num), int(den))
        if not coeff or [str(coeff.numerator), str(coeff.denominator)] != [num, den]:
            raise ValueError(f"coefficient {num}/{den} of state {state.occ} is zero or not in lowest terms")
        terms[state] = coeff
    return _raw_ket(n, terms)


def dumps_ket(psi: Ket) -> str:
    """``json.dumps(ket_to_document(psi), indent=1)`` plus a newline, byte for byte.

    The text is written directly: before Python 3.13 ``json.dumps`` with
    an indent runs its pure-Python encoder, not the C one.  Each distinct
    occupation row is formatted once per call, since the terms of a
    dressed monomial share most of their rows.
    """
    record = '  {\n   "occ": [\n%s\n   ],\n   "num": "%d",\n   "den": "%d"\n  }'
    rows: dict = {}
    terms = []
    for state, num, den in _sorted_terms(psi):
        occ = []
        for row in state.occ:
            text = rows.get(row)
            if text is None:
                text = rows[row] = "    [\n     %s\n    ]" % ",\n     ".join(map(str, row))
            occ.append(text)
        terms.append(record % (",\n".join(occ), num, den))
    body = "[\n%s\n ]" % ",\n".join(terms) if terms else "[]"
    return '{\n "N": %d,\n "convention": "%s",\n "terms": %s\n}\n' % (psi.n, SERIALIZATION_CONVENTION, body)


def loads_ket(text: str) -> Ket:
    return ket_from_document(json.loads(text))


def format_ket(psi: Ket) -> str:
    """Human-readable rendering, terms in serialization order."""
    if not psi.terms:
        return "0"
    parts = []
    for state, num, den in _sorted_terms(psi):
        body = " / ".join(" ".join(map(str, row)) for row in state.occ)
        coeff = num if den == 1 else f"{num}/{den}"
        parts.append(f"{coeff} |{body}>")
    return "  +  ".join(parts)
