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

A ket is stored as integer numerators over one positive common
denominator, in lowest terms: the gcd of every numerator and the
denominator is 1, no numerator is 0, and the zero ket has denominator
1.  That form is canonical, so two kets are equal exactly when their
numerator dicts and denominators are.  ``Ket.terms`` is the public
view, state -> ``int`` when the coefficient is integral and
``Fraction`` otherwise; it is the numerator dict itself when the
denominator is 1 and is built afresh on each read otherwise, so the
operators of the package read the numerators.  Other modules reach the
form only through the private helpers here: ``_numerators`` (a ket
scaled to integers, for the eliminator and the constraint test),
``_with_numerators`` (an integer linear image over the ket's
denominator), ``_sum``, ``_ratio`` (the scalar of a proportional
image) and ``_apply_tabled``.

States are hash-consed: every route that builds a ``FockState`` returns
the one canonical object for its occupation matrix, so two states are
equal exactly when they are the same object, and ``FockState`` keeps
Python's identity equality and C-level hash.  Nothing may depend on
the order of a set of states, since their hashes follow object
addresses.  The table ``_STATES`` lives as long as the process, like
``isb._create_terms``.

``dumps_ket`` writes exactly the bytes of
``json.dumps(ket_to_document(psi), indent=1)`` plus a newline, but
directly: before Python 3.13 an indented ``json.dumps`` runs the
pure-Python encoder, several times slower than the direct writer.

Kets are summed by three private kernels here and one in ``algebra``:

* ``_apply_images`` maps a ket by an integer rule on basis states,
  ``(terms, den)``: it sums integer products over one common
  denominator and reduces the result once, with one ``gcd``.  Every
  operator that ``algebra``, ``isb`` and ``su3x`` define, bar
  ``invariant_action``, is such a rule: the su(N) and
  triplet/antitriplet generators, the Casimirs, the dressed ladders of
  both languages, the rank-4 gluing route, the pair ladders and the
  pair level.  It sums its integer products inline, on the figure in
  its docstring;
* ``_accumulate`` adds (state, int) pairs into a dict: ket
  construction, ``_sum`` (addition and subtraction), the per-state
  image tables of the ``algebra`` suite, and the compositions inside
  the Casimir rule and the gluing rule;
* ``_apply_tabled`` maps a ket by an operator whose basis images it
  keeps in a table, for the ``algebra`` suite; it takes an ``lcm``
  only when an image's denominator does not divide the running one;
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
from math import comb, factorial, gcd, lcm
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
    immutable and validated on construction.  Equal matrices give the
    same object (see ``_unchecked_state``), so states compare and hash
    by identity.
    """

    __slots__ = ("n", "occ")

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
    ``ValueError``).  A ket holds integer numerators over one positive
    denominator in lowest terms (see the module docstring), so equality
    is exact state equality.  In ``terms`` a coefficient is an ``int``
    exactly when it is integral, on every route: construction, the
    operators, arithmetic and ``ket_from_document``.  Treat instances
    as frozen.
    """

    __slots__ = ("n", "_nums", "_den")

    def __init__(self, n: int, terms=None):
        _check_rank(n)
        items = list(terms.items() if isinstance(terms, dict) else terms or ())
        for state, coeff in items:
            if not isinstance(state, FockState) or state.n != n:
                raise ValueError(f"every state of a rank-{n} ket must be a rank-{n} FockState")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                raise ValueError(f"coefficients must be int or Fraction, got {coeff!r}")
        den = lcm(*(c.denominator for _, c in items))
        nums = _accumulate({}, ((s, c.numerator * (den // c.denominator)) for s, c in items))
        self.n = n
        k = _reduced(n, nums, den)
        self._nums, self._den = k._nums, k._den

    @property
    def terms(self) -> dict:
        """State -> coefficient: an ``int`` when integral, a ``Fraction`` otherwise."""
        den = self._den
        if den == 1:
            return self._nums
        return {s: v // den if v % den == 0 else Fraction(v, den) for s, v in self._nums.items()}

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._nums == other._nums

    def __add__(self, other: "Ket") -> "Ket":
        return self._combined(other, 1)

    def __sub__(self, other: "Ket") -> "Ket":
        return self._combined(other, -1)

    def _combined(self, other, sign: int) -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("cannot mix group ranks in one ket")
        return _sum(self, other, sign)

    def __neg__(self) -> "Ket":
        return _reduced(self.n, {s: -v for s, v in self._nums.items()}, self._den)

    def __mul__(self, scalar) -> "Ket":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scaled(scalar.numerator, scalar.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Ket":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ValueError("Ket division by zero")
        return self._scaled(scalar.denominator, scalar.numerator)

    def _scaled(self, num: int, den: int) -> "Ket":
        # self * num / den, den nonzero
        if not num:
            return _reduced(self.n, {})
        return _reduced(self.n, {s: v * num for s, v in self._nums.items()}, self._den * den)

    def __repr__(self) -> str:
        return f"<Ket N={self.n}, {len(self._nums)} terms>"


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
    unit = scale == 1
    for state, coeff in terms:
        total = acc.get(state, 0) + (coeff if unit else coeff * scale)
        if total:
            acc[state] = total
        else:
            acc.pop(state, None)
    return acc


def _sum(psi: Ket, phi: Ket, scale: int = 1) -> Ket:
    """psi + scale * phi over the lcm of their denominators, for an ``int`` scale."""
    d1, d2 = psi._den, phi._den
    if d1 == d2:
        return _reduced(psi.n, _accumulate(dict(psi._nums), phi._nums.items(), scale), d1)
    den = lcm(d1, d2)
    acc = {s: v * (den // d1) for s, v in psi._nums.items()}
    return _reduced(psi.n, _accumulate(acc, phi._nums.items(), scale * (den // d2)), den)


def _apply_images(psi: Ket, on_basis, *args) -> Ket:
    """The linear extension to psi of ``on_basis(*args, state) -> (terms, den)``, terms over ints.

    The image of a basis state is the sum of coeff / den |s> over the
    (s, coeff) pairs of terms.  The image denominators are brought to
    their lcm, the integer products with psi's numerators are summed,
    and the sum over that lcm times psi's denominator is reduced once
    (``_reduced``: no ``gcd`` when both are 1).  Every ladder and
    operator kept as integer basis images sums here.

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
    pieces = [(v, *on_basis(*args, s)) for s, v in psi._nums.items()]
    common = lcm(*(den for _, _, den in pieces))
    acc: dict = {}
    for v, terms, den in pieces:
        scale = v * (common // den)
        for state, coeff in terms:
            total = acc.get(state, 0) + coeff * scale
            if total:
                acc[state] = total
            else:
                acc.pop(state, None)
    return _reduced(psi.n, acc, common * psi._den)


def _apply_tabled(op, images: dict, psi: Ket) -> Ket:
    """The sum over the terms c |s> of psi of c op(|s>), each op(|s>) taken once and kept in images.

    images maps a state to its image's numerators and denominator.  The
    sum runs over the lcm of the image denominators met so far, and
    every term is scaled to it; the sum is rescaled only when a new
    denominator does not divide it, so no ``lcm`` is taken while every
    image is integral, as the images of the ``algebra`` suite nearly
    all are.  Routed through ``_apply_images`` with a table lookup as
    its rule, ``run_suite("algebra", n_max=3)`` reads 72.7 ms against
    49.4 ms (medians of 12 alternated passes in one process, 2-core
    x86 box, Python 3.11).
    """
    acc: dict = {}
    den = 1
    for state, v in psi._nums.items():
        image = images.get(state)
        if image is None:
            image = op(basis_ket(state))
            image = images[state] = image._nums.items(), image._den
        terms, d = image
        if den % d:
            common = lcm(den, d)
            acc = {s: c * (common // den) for s, c in acc.items()}
            den = common
        _accumulate(acc, terms, v * (den // d))
    return _reduced(psi.n, acc, den * psi._den)


def _numerators(psi: Ket) -> dict:
    """psi scaled to integers: state -> nonzero ``int``, psi times a positive integer.

    The ket's own dict, so callers must not change it.  Rank, span and
    whether a linear image vanishes do not depend on that scale.
    """
    return psi._nums


def _with_numerators(psi: Ket, nums: dict) -> Ket:
    """The ket nums over psi's denominator, for nums a new dict of nonzero ints.

    With ``_numerators`` it maps psi by any linear map on integer
    vectors: the image of psi is the image of its numerators over its
    denominator.
    """
    return _reduced(psi.n, nums, psi._den)


def _ratio(image: Ket, psi: Ket) -> Fraction | None:
    """The scalar c with image == c psi, for a nonzero psi; None when there is none.

    The numerators are compared cross-multiplied, as integers: with p
    and q the numerators of psi and image on one state of psi, image is
    proportional to psi when q is 0 and image is zero, or when both have
    the same states and q v == p w on each, v of psi and w of image.
    """
    nums, inums = psi._nums, image._nums
    state, p = next(iter(nums.items()))
    q = inums.get(state, 0)
    if q:
        if inums.keys() != nums.keys() or any(q * v != p * inums[t] for t, v in nums.items()):
            return None
    elif inums:
        return None
    return Fraction(q * psi._den, p * image._den)


def _reduced(n: int, nums: dict, den: int = 1) -> Ket:
    """The ket nums / den, nonzero ints over a nonzero int, in lowest terms; den 1 skips the ``gcd``.

    The one trusted constructor: nums must be rank-consistent.  Dividing
    by the gcd, negated for a negative den, leaves den positive.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {s: v // g for s, v in nums.items()}
            den //= g
    k = Ket.__new__(Ket)
    k.n = n
    k._nums = nums
    k._den = den
    return k


def zero_ket(n: int) -> Ket:
    _check_rank(n)
    return _reduced(n, {})


def vacuum(n: int) -> Ket:
    """The Fock vacuum |0> for rank n, with coefficient one."""
    _check_rank(n)
    empty = _unchecked_state(n, ((0,) * n,) * (n - 1))
    return _reduced(n, {empty: 1})


def basis_ket(state: FockState) -> Ket:
    return _reduced(state.n, {state: 1})


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
    return _reduced(psi.n, {_bumped(s, i, alpha, 1): v for s, v in psi._nums.items()}, psi._den)


def apply_annihilate(i: int, alpha: int, psi: Ket) -> Ket:
    """Apply a[i]_alpha: lower one occupation, coefficient times old occupation."""
    _check_slot(psi.n, i, alpha)
    out = {}
    for s, v in psi._nums.items():
        m = s.occ[i - 1][alpha - 1]
        if m:
            out[_bumped(s, i, alpha, -1)] = m * v
    return _reduced(psi.n, out, psi._den)


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
    small, big = phi._nums, psi._nums
    if len(big) < len(small):
        small, big = big, small
    total = 0
    for s, c in small.items():
        d = big.get(s)
        if d is not None:
            total += c * d * factorial_weight(s)
    return Fraction(total, phi._den * psi._den)


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
    """(state, numerator, denominator) of every term in lowest terms, sorted by occupation matrix."""
    den = psi._den
    for state, v in sorted(psi._nums.items(), key=lambda term: term[0].occ):
        if den == 1:
            yield state, v, 1
        else:
            g = gcd(v, den)
            yield state, v // g, den // g


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
    terms = []
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
        v, d = int(num), int(den)
        if not v or gcd(v, d) != 1 or [str(v), str(d)] != [num, den]:
            raise ValueError(f"coefficient {num}/{den} of state {state.occ} is zero or not in lowest terms")
        terms.append((state, v, d))
    common = lcm(*(d for _, _, d in terms))
    return _reduced(n, {state: v * (common // d) for state, v, d in terms}, common)


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
    if not psi:
        return "0"
    parts = []
    for state, num, den in _sorted_terms(psi):
        body = " / ".join(" ".join(map(str, row)) for row in state.occ)
        coeff = num if den == 1 else f"{num}/{den}"
        parts.append(f"{coeff} |{body}>")
    return "  +  ".join(parts)
