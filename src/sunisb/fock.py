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
``Fraction`` otherwise, a new dict on every read, so changing it leaves
the ket as it was; the operators of the package read the numerators.
No module but this one reads ``_nums`` or ``_den``: the others reach
the form only through the private helpers here: ``_numerators`` (a ket
scaled to integers, for the eliminator and the constraint test),
``_with_numerators`` (an integer linear image over the ket's
denominator), ``_sum``, ``_ratio`` (the scalar of a proportional
image) and ``_BasisImages`` (a per-state image table).

States are hash-consed: every route that builds a ``FockState`` returns
the one canonical object for its occupation matrix, so two states are
equal exactly when they are the same object, and ``FockState`` keeps
Python's identity equality and C-level hash.  Nothing may depend on
the order of a set of states, since their hashes follow object
addresses.  The table ``_STATES`` lives as long as the process, like
``isb._create_terms``, the memo of dressed creation images, which only
label-family sweeps fill (see ``isb``).

The table is keyed by each state's ``code``, one int of 16-bit fields:
the rank N in field 0 and occupation (i, alpha) in field
(i-1)N + alpha.  It is packed with ``struct`` as little-endian words,
so it does not depend on the machine's byte order.  No state holds an
occupation above 65,534, one below the field's largest value:
``FockState`` and ``enumerate_sector`` raise ``ValueError`` naming that
cap, and so does a code past it when the table meets it.  So a state
edit that adds one quantum to a cell can never carry into the next
field.  Every state edit is one int added to the code, then one table
lookup, and the occupation tuples of a state are built only when the
table misses: ``_bumped`` (one occupation up or down), ``_recolored``
(a quantum to another color) and ``_paired`` (a quantum of one color in
both rows of a rank-3 state).  Only ``_unchecked_state``, ``_decoded``
and ``enumerate_sector`` add states to the table.  No module but this
one reads a code: the others pass dicts keyed by codes between
``_by_code``, the code kernels below and ``_by_state``, which turn
state keys into codes and back.

``dumps_ket`` writes exactly the bytes of
``json.dumps(ket_to_document(psi), indent=1)`` plus a newline, but
directly: before Python 3.13 an indented ``json.dumps`` runs the
pure-Python encoder, several times slower than the direct writer.

Kets are summed by three private kernels, all here:

* ``_apply_images`` maps a ket by an integer rule on basis states,
  ``(terms, den)``: it sums integer products over a running common
  denominator, rescaled only when an image's denominator does not
  divide it, and reduces the result once, with one ``gcd``.  Every
  operator that ``algebra``, ``isb`` and ``su3x`` define, bar
  ``invariant_action``, is such a rule: the su(N) and
  triplet/antitriplet generators, the Casimirs, the dressed ladders of
  both languages, the rank-4 gluing route, the pair ladders and the
  pair level.  So is the per-state image table of an op,
  ``_BasisImages``, through which the ``algebra`` suite maps its kets.
  ``_apply_by_totals`` sums through it, but calls its rule once per
  row-total vector of the ket, on the ket's numerators there: the
  dressed creation of a one-off call.  The products are summed inline
  (see ``_apply_images``);
* ``_accumulate`` adds (state, int) pairs into a dict: ket
  construction, ``_sum`` (addition and subtraction), and the
  compositions inside the Casimir rule and the gluing rule;
* ``_bilinear_into`` sums the image of an invariant bilinear in place,
  on dicts keyed by codes, each move of a quantum one int added to a
  code, kept on its own figure (see ``_accumulate``).  It serves
  ``algebra.invariant_action``, which turns the image back into states,
  the constraint test of ``irreps``, which only asks whether an image
  is empty, the null spaces of ``irreps``, whose relations do not
  depend on the keys, and ``_row_sums``.

``_row_sums`` runs the nested row form of the dressed ladders of
``isb`` (see there), given the dressing denominators: both routes of
``isb_create``, ``isb_annihilate`` and the gluing route.  Each row is a
dict keyed by codes, summed by ``_bilinear_into``, and only the last
row's terms become states: the intermediate rows, whose row totals
the operator never returns, are never put in the table.

``apply_create`` and ``apply_annihilate`` stay comprehensions: they
relabel each state once, so no two terms meet and there is nothing to
sum; routed through ``_apply_images`` they made the default ``fock``
suite slower.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import comb, factorial, gcd, lcm
from struct import Struct
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
    immutable and validated on construction; no occupation may exceed
    65,534 (see the module docstring).  Equal matrices give the same
    object (see ``_unchecked_state``), so states compare and hash by
    identity.
    """

    __slots__ = ("n", "occ", "code")

    def __new__(cls, n: int, occ: Iterable[Iterable[int]]) -> "FockState":
        occ = tuple(tuple(_exact_int(e, "occupation") for e in row) for row in occ)
        _check_rank(n)
        if len(occ) != n - 1 or any(len(row) != n for row in occ):
            raise ValueError(f"occupation matrix must be {n - 1}x{n}")
        if min(map(min, occ)) < 0:
            raise ValueError("occupations must be non-negative")
        if max(map(max, occ)) > _CAP:
            raise ValueError(_CAP_TEXT)
        return _unchecked_state(occ)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so they return the canonical state
        return FockState, (self.n, self.occ)

    def __repr__(self) -> str:
        return f"FockState({self.n}, {self.occ})"


# A code packs a state into one int of 16-bit fields: the rank in field 0
# and occupation (i, alpha) in field (i-1)N + alpha.  Table states hold
# occupations up to _CAP, one below the field's largest value, so one
# quantum more never carries into the next field.
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_CAP = _MASK - 1
_CAP_TEXT = f"occupations must not exceed {_CAP}"

# code -> its canonical FockState; the code holds the rank, so it alone is the key
_STATES: dict = {}


@cache
def _layout(n: int) -> Struct:
    """The fields of a rank-n code as bytes: little-endian 16-bit words, whatever the machine's byte order."""
    return Struct(f"<{n * (n - 1) + 1}H")


def _encode(occ: tuple[tuple[int, ...], ...]) -> int:
    """The code of an occupation matrix within the cap."""
    n = len(occ) + 1
    return int.from_bytes(_layout(n).pack(n, *chain.from_iterable(occ)), "little")


def _interned(code: int, occ: tuple[tuple[int, ...], ...]) -> FockState:
    s = object.__new__(FockState)
    s.n = len(occ) + 1
    s.occ = occ
    s.code = code
    return _STATES.setdefault(code, s)


def _unchecked_state(occ: tuple[tuple[int, ...], ...]) -> FockState:
    # Trusted fast path: callers guarantee shape, non-negativity and the cap; N is the row count plus one.
    code = _encode(occ)
    s = _STATES.get(code)
    return _interned(code, occ) if s is None else s


def _decoded(code: int) -> FockState:
    """The table state of a code the table does not hold yet; ``ValueError`` past the cap."""
    n = code & _MASK
    layout = _layout(n)
    fields = layout.unpack(code.to_bytes(layout.size, "little"))
    if max(fields[1:]) > _CAP:
        raise ValueError(_CAP_TEXT)
    return _interned(code, tuple(fields[r : r + n] for r in range(1, len(fields), n)))


def _bumped(state: FockState, i: int, alpha: int, delta: int) -> FockState:
    code = state.code + (delta << _FIELD * ((i - 1) * state.n + alpha))
    return _STATES.get(code) or _decoded(code)


def _recolored(state: FockState, i: int, beta: int, alpha: int) -> FockState:
    """One quantum in row i recolored from beta to alpha; callers pass beta != alpha."""
    row = _FIELD * (i - 1) * state.n
    code = state.code + (1 << row + _FIELD * alpha) - (1 << row + _FIELD * beta)
    return _STATES.get(code) or _decoded(code)


def _paired(state: FockState, g: int, delta: int) -> FockState:
    """One quantum of color g + 1 added to (delta 1) or taken from (delta -1) both rows of a rank-3 state."""
    code = state.code + (delta << _FIELD * (g + 1)) + (delta << _FIELD * (g + 4))
    return _STATES.get(code) or _decoded(code)


def _by_code(nums: dict) -> dict:
    """nums, state -> coeff, keyed by the states' codes: the input of ``_bilinear_into``."""
    return {s.code: v for s, v in nums.items()}


def _by_state(terms: dict) -> dict:
    """terms, code -> coeff, keyed by the table's states: the output of ``_bilinear_into``."""
    get = _STATES.get
    return {get(c) or _decoded(c): v for c, v in terms.items()}


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
        """State -> coefficient, a new dict on each read: an ``int`` when integral, a ``Fraction`` otherwise."""
        den = self._den
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
    this loop are kept: ``_apply_images``, the one kernel that maps a
    ket by integer basis images (see there), and ``_bilinear_into``,
    which sums each invariant bilinear in place, for
    ``algebra.invariant_action`` and every row sum of the dressed
    ladders.  For the latter, against the same code passing
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


def _bilinear_into(acc: dict, terms: dict, i: int, j: int, scale=1) -> dict:
    """Add scale * a+[i].a[j] applied to terms into acc, in place, both code -> coeff; return acc.

    Each move of a quantum from row j to row i is one int added to the
    code.  Codes whose total reaches zero are dropped.  The loop is an
    inline copy of ``_accumulate``'s, kept on the figure cited there.
    """
    unit = scale == 1
    # every code of terms has one rank, in its lowest field
    cells = _moves(next(iter(terms), 0) & _MASK, i, j)
    for code, coeff in terms.items():
        if not unit:
            coeff = coeff * scale
        for shift, step in cells:
            m = (code >> shift) & _MASK
            if m:
                target = code + step
                total = acc.get(target, 0) + m * coeff
                if total:
                    acc[target] = total
                else:
                    acc.pop(target, None)
    return acc


@cache
def _moves(n: int, i: int, j: int) -> tuple:
    """Per color alpha of a rank-n code, (shift, step): occupation (j, alpha) sits at bit shift.

    code + step moves one of its quanta to row i.
    """
    src = _FIELD * ((j - 1) * n + 1)
    move = (1 << _FIELD * ((i - 1) * n + 1)) - (1 << src)
    return tuple((src + _FIELD * a, move << _FIELD * a) for a in range(n))


def _row_sums(alpha: int, rows: range, direction: int, dens: list, nums: dict) -> tuple:
    """The nested row form of ``isb`` on nums, state -> int: the last row's (terms, denominator).

    Row i of rows holds E_i X_i, over ints: the bare ladder of row i
    (a+[i]^alpha for direction 1, a[i]_alpha with its occupation for
    -1) on nums, scaled by E_i, plus E_i (-direction / d_j) M[i,j]
    applied to each nonzero row j before it, M[i,j] being
    a+[i].a[j] for creation and a+[j].a[i] for annihilation.  dens
    holds d_j for every row of rows but the last, in order, and E_i is
    the product of those before row i.  The states of nums share one
    row-total vector, on which the d_j depend.  Every row is a dict
    over codes, summed by ``_bilinear_into``; only the last row's
    terms become states, through the table.
    """
    n = next(iter(nums)).n
    done = []  # (j, E_j X_j, -direction E_j d_j) for each nonzero row j so far
    scale = 1  # E_i
    for i, den in zip(rows, (*dens, 1)):
        shift = _FIELD * ((i - 1) * n + alpha)
        step = 1 << shift
        if direction == 1:
            acc = {s.code + step: v * scale for s, v in nums.items()}
        else:
            acc = {}
            for s, v in nums.items():
                m = (s.code >> shift) & _MASK
                if m:
                    acc[s.code - step] = m * v * scale
        for j, x_j, below in done:
            # scale // below is E_i times the dressing factor -direction/d_j, over E_j
            if direction == 1:
                _bilinear_into(acc, x_j, i, j, scale // below)
            else:
                _bilinear_into(acc, x_j, j, i, scale // below)
        scale *= den
        if acc:  # a zero row adds nothing further on
            done.append((i, acc, -direction * scale))
    return _by_state(acc).items(), scale


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
    (s, coeff) pairs of terms, den a nonzero ``int`` of either sign.
    The integer products with psi's numerators are summed over a
    running positive denominator, the lcm of the image denominators met
    so far: each image's terms are scaled to it, and the partial sum is
    rescaled only when an image's denominator does not divide it, so
    while every image is integral no ``lcm`` is taken.  The sum over
    that denominator times psi's is reduced once (``_reduced``: no
    ``gcd`` when both are 1).  Every ladder and operator kept as integer
    basis images sums here, and so do the per-state image tables of the
    ``algebra`` suite (``_BasisImages``).

    The products are summed inline, a copy of ``_accumulate``'s loop,
    so a call is one Python frame besides the rule's.  Against passing
    each image to ``_accumulate``, Q[1,2] on one basis ket takes 2.71
    against 2.80 us and the dressed creation A+[3]^2 on a 10-term rank-4
    monomial 6.30 against 6.91 us (medians of 15 alternated rounds in
    one process, best of 3 x 20,000 calls each; inline faster in 14 of
    15 rounds for both; 2-core x86 box, Python 3.11).  With the loop in
    a helper that ``_apply_by_totals`` shared, one frame more per call,
    the ``algebra`` suite at ``n_max=3`` read 53.1 against 47.6 ms
    (medians of 6 alternated fresh interpreters; same box).
    """
    acc: dict = {}
    common = 1
    for s, v in psi._nums.items():
        terms, den = on_basis(*args, s)
        if common % den:
            wider = lcm(common, den)
            up = wider // common
            acc = {t: c * up for t, c in acc.items()}
            common = wider
        scale = v * (common // den)
        for state, coeff in terms:
            total = acc.get(state, 0) + coeff * scale
            if total:
                acc[state] = total
            else:
                acc.pop(state, None)
    return _reduced(psi.n, acc, common * psi._den)


def _apply_by_totals(psi: Ket, on_group, *args) -> Ket:
    """The linear extension to psi of ``on_group(*args, nums) -> (terms, den)``, one call per row-total vector.

    nums is psi's numerator dict restricted to the states of one
    row-total vector, a new dict in psi's order, and the group's image
    is the sum of coeff / den |s> over the (s, coeff) pairs of terms.
    psi is the sum of its groups, so ``_apply_images`` sums the images:
    it maps the ket of each group's first state, each with numerator 1
    over psi's denominator, by the rule that sends a first state to the
    image of its group.  So the groups are taken in the order their
    first states hold in psi, and a rule whose denominator and whose
    errors depend only on the row totals gives the same ket, and raises
    at the same state, as the per-state rule ``on_group(*args, {state:
    1})`` mapped by ``_apply_images``, while terms that states of one
    group share meet and cancel inside the rule.
    """
    groups: dict = {}  # row totals -> the numerators of the group
    firsts: dict = {}  # the first state of each group -> the numerators of the group
    for s, v in psi._nums.items():
        totals = tuple(map(sum, s.occ))
        group = groups.get(totals)
        if group is None:
            group = groups[totals] = firsts[s] = {}
        group[s] = v
    heads = _reduced(psi.n, dict.fromkeys(firsts, 1), psi._den)
    return _apply_images(heads, lambda first: on_group(*args, firsts[first]))


class _BasisImages(dict):
    """state -> ``(terms, den)`` of ``op(basis_ket(state))``, each taken once: a memo rule.

    ``table.__getitem__`` is a rule for ``_apply_images``: a state met
    for the first time calls op, the op bound when the table was made,
    and keeps its image's numerators and denominator.  A table lives as
    long as its owner holds it.  Keyed by the state itself: with a
    ``functools.cache`` rule, which stores a 1-tuple key per entry, the
    peak RSS of a fresh interpreter running the default ``algebra``
    suite read 32.79 MB against 30.61 MB (medians of 5 alternated runs;
    2-core x86 box, Python 3.11).
    """

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __missing__(self, state):
        image = self.op(basis_ket(state))
        image = self[state] = image._nums.items(), image._den
        return image


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
    empty = _unchecked_state(((0,) * n,) * (n - 1))
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
    return tuple(map(sum, state.occ))


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
    if any(t > _CAP for t in totals):
        raise ValueError(f"row totals must not exceed {_CAP}, the occupation cap")
    per_row = [list(_compositions(t, n)) for t in totals]
    # a code is the rank plus one part per row, so each row's parts are encoded once
    zero = ((0,) * n,) * (n - 1)
    codes = [n]
    for r, rows in enumerate(per_row):
        parts = [_encode((*zero[:r], row, *zero[r + 1 :])) - n for row in rows]
        codes = [c + part for c in codes for part in parts]
    get = _STATES.get
    return [get(c) or _interned(c, occ) for occ, c in zip(product(*per_row), codes)]


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
