"""Identity-verification harness: each check builds both sides of a
distribution identity exactly (enumeration on one side, closed form on the
other) and compares them term by term; bijective claims are additionally
checked pointwise, reporting the first violating object in enumeration
order.

Known checks (the id strings are the command-line interface):

========  ===================================================================
id        claim
========  ===================================================================
thm3.1    sum over the sigma-class of p^(maf+bInv) q^cinvLSB equals
          q^(k(k-1)) (p/q)^(inv sigma) S_{p,q}(n,k) for maf in {mak, mak'},
          and the conjugated diagram involution swaps mak and mak' pointwise
thm3.2    the same sum over all ordered partitions equals
          q^C(k,2) [k]_{p,q}! S_{p,q}(n,k)
thm3.3    per partition type, the bMaj-based statistic triple is
          equidistributed with the bInv-based one; the encoding swap map
          carries one to the other pointwise
thm3.4    thm3.2 with bInv/cinvLSB replaced by bMaj/cmajLSB
thm3.5    INV and MAJ are equidistributed over the rearrangement class of
          any partition, with generating function [k]_q!
eq1.1     inv and maj are equidistributed over a rearrangement class of
          words, with the q-multinomial as generating function
eq2.3     sum over standard partitions of p^rcb q^lsb is S_{p,q}(n,k)
eq5.8     sum over ordered partitions of p^(cls+rsb_TC) q^(sb-rsb_TC)
          t^(mah sigma) is [k]_t! S_{p,q}(n,k), for mah = inv and maj;
          likewise with opb in place of cls
eq9.2     the same with t^MAJ in place of t^(mah sigma)
zezh      [k]_q! S_q(n,k) = sum_m q^(k(k-m)) C_q(n-m,n-k) A_q(n,m-1)
doubleton the rearrangement class of the doubleton partition of a
          composition factors its INV/MAJ distributions through the word
          class and the per-letter classes
========  ===================================================================
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Union

from .core import (
    OrderedSetPartition,
    Permutation,
    decompose_doubleton,
    doubleton_partition,
    inversion_number,
    major_index,
)
from .families import (
    DESK_COUNT_DEFAULT,
    DESK_ORDERS_DEFAULT,
    TABLE_MAX_N,
    DeskScaleError,
    _check_count,
    _check_scale,
    _standard_forms,
    beta,
    beta_inv,
    ordered_set_partitions,
    rearrangements,
    set_partitions,
    sigma_partitions,
    stirling2,
    words,
)
from .paths import LatticePath, step_word, upsilon, xi_map
from .qpoly import (
    LaurentPolynomial,
    gauss_binomial,
    pq_factorial,
    q_factorial,
    stirling_pq,
    verify_zezh,
)
# ``stat`` and ``six_composites`` are imported for the benchmark's tracer
# (bench/tracing.py), which wraps them under this module's name; no check
# here calls them
from .statistics import (
    aggregate_profile,
    field_values,
    order_reader,
    six_composites,
    stat,
    stat_restricted,
    unpack_totals,
)

__all__ = ["VerificationReport", "verify", "THEOREM_IDS", "run_task"]


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    params: dict
    passed: bool
    lhs: LaurentPolynomial | None = None
    rhs: LaurentPolynomial | None = None
    counterexample: str | None = None
    detail: str = ""

    def to_json(self) -> dict:
        lhs = self.lhs.to_text() if self.lhs is not None else None
        if self.rhs is None:
            rhs = None
        else:  # equal sides, as on every pass, are rendered once
            rhs = lhs if self.rhs == self.lhs else self.rhs.to_text()
        out = {
            "theorem": self.theorem,
            "params": {key: str(value) for key, value in self.params.items()},
            "pass": self.passed,
            "lhs": lhs,
            "rhs": rhs,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        bits = [f"{self.theorem} {self.params}: {status}"]
        if self.detail:
            bits.append(self.detail)
        if self.counterexample:
            bits.append(f"counterexample: {self.counterexample}")
        return " | ".join(bits)


def _as_permutation(sigma: Union[Permutation, str, Sequence[int]]) -> Permutation:
    if isinstance(sigma, Permutation):
        return sigma
    if isinstance(sigma, str):
        return Permutation.parse(sigma)
    # a float or a bool must not be read as an int nobody asked for (True as 1)
    if isinstance(sigma, (tuple, list)) and all(type(image) is int for image in sigma):
        return Permutation(tuple(sigma))
    raise ValueError(f"sigma must be a permutation, its text or a sequence of integers, got {sigma!r}")


def _as_standard_partition(pi: Union[OrderedSetPartition, str]) -> OrderedSetPartition:
    if isinstance(pi, str):
        pi = OrderedSetPartition.parse(pi)
    elif not isinstance(pi, OrderedSetPartition):
        raise ValueError(f"pi must be an ordered set partition or its text, got {pi!r}")
    return pi.standard_form()[0]


# ---------------------------------------------------------------------------
# Two folds: objects keyed as they are visited, and rows a kernel packs
# ---------------------------------------------------------------------------

def _fold(family: Iterable, row: Callable, keys: Callable, slots: int, check: Callable | None = None) -> tuple:
    """Count j sums the j-th of the ``slots`` keys in ``keys(row(obj))`` over
    the family, each object keyed as it is visited.  ``check(obj, row(obj))``
    runs on every object in order until it first returns a counterexample."""
    counts: list[dict] = [{} for _ in range(slots)]
    first = None
    for obj in family:
        values = row(obj)
        for counter, key in zip(counts, keys(values)):
            counter[key] = counter.get(key, 0) + 1
        if first is None and check is not None:
            first = check(obj, values)
    return counts, first


def _key_counts(rows: dict, keys: Callable, slots: int) -> list[dict]:
    """The counts of ``_fold`` for rows already counted, as ``Counter``
    counts a kernel's packed rows: each distinct row keyed once."""
    counts: list[dict] = [{} for _ in range(slots)]
    for values, objects in rows.items():
        for counter, key in zip(counts, keys(values)):
            counter[key] = counter.get(key, 0) + objects
    return counts


def _slot_keys(slots: tuple[tuple[int, ...], ...]) -> Callable:
    """Key a row by position: slot j's key holds the row's entries at
    ``slots[j]``, at least two, such as its p, q and t exponents, padded
    with zeros to four."""
    getters = [(itemgetter(*slot), (0,) * (4 - len(slot))) for slot in slots]
    return lambda row: [get(row) + pad for get, pad in getters]


def _q_keys(row: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """Each entry of the row, such as (inv, maj), as a q exponent."""
    return [(0, e, 0, 0) for e in row]


def _eq23_sweep(n: int, k: int) -> tuple[list, None]:
    """p^rcb q^lsb over the standard forms, each drawn as its (rcb, lsb)."""
    rows = Counter(set_partitions(n, k, fields=("rcb", "lsb")))
    (counts,) = _key_counts(rows, _slot_keys(((0, 1),)), 1)
    return [(LaurentPolynomial(counts), stirling_pq(n, k))], None


# ---------------------------------------------------------------------------
# Sums over all ordered partitions: thm3.2, thm3.4, eq5.8 and eq9.2
# ---------------------------------------------------------------------------

def _em_rhs(n: int, k: int) -> LaurentPolynomial:
    return LaurentPolynomial.variable("q", comb(k, 2)) * pq_factorial(k) * stirling_pq(n, k)


def _t_rhs(n: int, k: int) -> LaurentPolynomial:
    return q_factorial(k, "t") * stirling_pq(n, k)


# Each id names its slots as tuples of forms (``statistics._FORMS``), each
# slot's p, q and t exponents in order; its rows carry each form once.  The
# t-refined sums share their p exponents.
_T_P = ("cls+rsb_tc", "opb+rsb_tc")
_OP_SUMS = {
    "thm3.2": ((("mak+binv", "cinvlsb"), ("makp+binv", "cinvlsb")), _em_rhs),
    "thm3.4": ((("mak+bmaj", "cmajlsb"), ("makp+bmaj", "cmajlsb")), _em_rhs),
    "eq5.8": (tuple((p, "sb-rsb_tc", t) for p in _T_P for t in ("invsigma", "majsigma")), _t_rhs),
    "eq9.2": (tuple((p, "sb-rsb_tc", "maj") for p in _T_P), _t_rhs),
}


def _op_fields(slots: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The forms that ``slots`` read, each once, and each slot as the
    positions of its forms among them."""
    fields = tuple(dict.fromkeys(itertools.chain.from_iterable(slots)))
    return fields, tuple(tuple(map(fields.index, slot)) for slot in slots)


def _op_sweep(theorem: str, n: int, k: int) -> tuple[list, None]:
    """The sums of ``theorem`` over OP(n,k): every block order, drawn as its
    packed fields, counted, then keyed once per distinct row."""
    slots, rhs = _OP_SUMS[theorem]
    fields, positions = _op_fields(slots)
    totals = Counter(ordered_set_partitions(n, k, allow_large=True, fields=fields))
    counts = _key_counts(unpack_totals(totals, n, k, fields), _slot_keys(positions), len(slots))
    return [(LaurentPolynomial(c), rhs(n, k)) for c in counts], None


# ---------------------------------------------------------------------------
# thm3.1: sigma-classes with the (p/q)^inv factor, plus the xi transport
# ---------------------------------------------------------------------------

# Each transport check names the forms it reads of both of its sides, as
# the sums above name theirs.  pi's side is in its row, which the fold hands
# to the pointwise check.  Where the objects come as block orders of one set
# of blocks (thm3.3's ordered partitions, as in the OP(n,k) sums above, and
# a rearrangement class), the sweep builds one ``order_reader`` for them and
# reads the images under upsilon with it too, as these mostly keep pi's
# blocks.  xi complements the type, so its images have other blocks, and
# both sides are read by ``field_values``.
_XI_FIELDS = ("mak+binv", "makp+binv", "cinvlsb", "rsb_tc")


def _xi_violation(pi: OrderedSetPartition, sigma: Permutation, side: tuple[int, ...], partners: dict) -> str | None:
    """The conjugated involution must swap mak+bInv with mak'+bInv, fix
    cinvLSB and rsb_TC, and stay inside the sigma-class.  ``side`` is pi's
    ``_XI_FIELDS``, its row in the fold.

    A sweep passes one ``partners`` dict to every check.  When pi passes
    with xi(pi) = rho != pi, xi(rho) = pi holds, and rho's checks are pi's
    with the two exchanged, which are symmetric, except the class of rho's
    image pi.  So pi records rho -> pi, and at rho only that class is tested.
    """
    image = partners.pop(pi, None)
    if image is not None:
        return None if image.standard_form()[1] == sigma else f"image leaves the sigma-class: {pi} -> {image}"
    image = xi_map(pi)
    a, b, ci, rsb_tc = side
    a2, b2, ci2, rsb_tc2 = field_values(image, _XI_FIELDS)
    if (a2, b2, ci2) != (b, a, ci):
        return f"triple swap fails: {pi} -> {image}"
    if rsb_tc != rsb_tc2:
        return f"rsb_TC changes: {pi} -> {image}"
    if image.standard_form()[1] != sigma:
        return f"image leaves the sigma-class: {pi} -> {image}"
    if image != pi:
        if xi_map(image) != pi:
            return f"not an involution at {pi}"
        partners[image] = pi
    return None


def _thm31_sweep(n: int, k: int, sigma: Permutation) -> tuple[list, str | None]:
    partners: dict = {}
    counts, counterexample = _fold(
        # (mak+bInv, cinvLSB) and (mak'+bInv, cinvLSB)
        sigma_partitions(n, k, sigma), lambda pi: field_values(pi, _XI_FIELDS), _slot_keys(((0, 2), (1, 2))), 2,
        lambda pi, side: _xi_violation(pi, sigma, side, partners),
    )
    inv = sigma.inversion_number()
    rhs = LaurentPolynomial.monomial(1, ep=inv, eq=k * (k - 1) - inv) * stirling_pq(n, k)
    return [(LaurentPolynomial(c), rhs) for c in counts], counterexample


# ---------------------------------------------------------------------------
# thm3.3: per-type equidistribution plus the upsilon transport
# ---------------------------------------------------------------------------

# the bInv-based triple, the bMaj-based one and rsb_TC
_UPSILON_FIELDS = ("mak+binv", "makp+binv", "cinvlsb", "mak+bmaj", "makp+bmaj", "cmajlsb", "rsb_tc")


def _upsilon_violation(pi: OrderedSetPartition, row: tuple, read: Callable) -> str | None:
    """The encoding swap must preserve the type and rsb_TC and carry the
    bInv-based triple to the bMaj-based one.  ``row`` is pi's type and its
    ``_UPSILON_FIELDS``, and ``read`` reads those of the image, with pi's
    pair table where the image keeps pi's blocks."""
    image = upsilon(pi)
    word, a, b, ci, _, _, _, rsb_tc = row
    _, _, _, c2, d2, cm2, rsb_tc2 = read(image)
    if (c2, d2, cm2) != (a, b, ci):
        return f"triple transport fails: {pi} -> {image}"
    if step_word(image) != word:
        return f"type changes: {pi} -> {image}"
    if rsb_tc != rsb_tc2:
        return f"rsb_TC changes: {pi} -> {image}"
    return None


def _thm33_sweep(n: int, k: int) -> tuple[list, str | None]:
    """pi's row is its type, as its path's step word, then its
    ``_UPSILON_FIELDS``.  The type and the reader belong to the blocks, so
    each is made once per standard form.  As in ``ordered_set_partitions``,
    the tracer (bench/tracing.py) wraps no generator of the forms, so it
    counts the block orders alone."""
    word, read = "", None

    def block_orders() -> Iterable[OrderedSetPartition]:
        nonlocal word, read
        for std in _standard_forms(n, k):
            word = step_word(std)
            read = order_reader(std.blocks, _UPSILON_FIELDS)
            yield from rearrangements(std)

    (inv_by_type, maj_by_type), counterexample = _fold(
        # the bInv- and bMaj-based triples, each keyed with the type
        block_orders(), lambda pi: (word, *read(pi)), _slot_keys(((0, 1, 2, 3), (0, 4, 5, 6))), 2,
        lambda pi, row: _upsilon_violation(pi, row, read),
    )
    # both counters count every object of a type once, so the per-type
    # distributions differ only where a key of the first has another count
    bad_word = next(
        (key[0] for key, count in inv_by_type.items() if maj_by_type.get(key) != count), None
    )
    if bad_word is not None and counterexample is None:
        counterexample = f"type {LatticePath(tuple(bad_word)).partition_type()}"
    # equal per-type distributions make the totals equal; a total drops the type
    inv, maj = (_key_counts(by_type, _slot_keys(((1, 2, 3),)), 1)[0] for by_type in (inv_by_type, maj_by_type))
    return [(LaurentPolynomial(maj), LaurentPolynomial(inv))], counterexample


# ---------------------------------------------------------------------------
# thm3.5: rearrangement classes of a partition
# ---------------------------------------------------------------------------

_INV_MAJ = ("inv", "maj")


def _thm35_sweep(pi: OrderedSetPartition) -> tuple[list, str | None]:
    """``pi`` is in standard form.  beta(beta_inv(rho)) = rho on the k!
    members makes beta_inv injective, hence onto the k! subdiagonal vectors,
    so beta is a bijection onto the class, with MAJ(beta(c)) = sum(c)."""

    def beta_violation(rho: OrderedSetPartition, inv_maj: tuple[int, int]) -> str | None:
        c = beta_inv(rho)
        try:
            image = beta(pi, c)
        except ValueError as exc:  # c is not a subdiagonal vector of length k
            return f"beta refuses beta_inv({rho}) = {c}: {exc}"
        if image != rho:
            return f"beta_inv round-trip fails at {rho}: beta gives {image}"
        if inv_maj[1] != sum(c):
            return f"MAJ(beta({c})) != {sum(c)} at {rho}"
        return None

    read = order_reader(pi.blocks, _INV_MAJ)  # one pair table for the class
    (acc_inv, acc_maj), counterexample = _fold(rearrangements(pi), read, _q_keys, 2, beta_violation)
    rhs = q_factorial(pi.k)
    return [(LaurentPolynomial(acc_maj), rhs), (LaurentPolynomial(acc_inv), rhs)], counterexample


# ---------------------------------------------------------------------------
# Word-level MacMahon and the doubleton factorization
# ---------------------------------------------------------------------------

def _q_multinomial(parts: Sequence[int]) -> LaurentPolynomial:
    total = 0
    result = LaurentPolynomial.constant(1)
    for p in parts:
        total += p
        result = result * gauss_binomial(total, p)
    return result


def _word_count(parts: Sequence[int]) -> int:
    """The words of ``parts``: the multinomial coefficient."""
    total, count = 0, 1
    for p in parts:
        total += p
        count *= comb(total, p)
    return count


def _word_inv_maj(w: tuple[int, ...]) -> tuple[int, int]:
    return inversion_number(w), major_index(w)


def _doubleton_sweep(parts: tuple[int, ...]) -> tuple[list, str | None]:
    def split_violation(rho: OrderedSetPartition, _row) -> str | None:
        w, components = decompose_doubleton(rho, parts)
        prof = aggregate_profile(rho)
        if prof["binv"] != inversion_number(w) or prof["bmaj"] != major_index(w):
            return f"block stats differ from word stats at {rho}"
        if prof["rsb_os"] != sum(stat_restricted(comp, "rsb", "OS") for comp in components if comp.n):
            return f"rsb_OS does not split at {rho}"
        return None

    pi = doubleton_partition(parts)
    counts, counterexample = _fold(rearrangements(pi), order_reader(pi.blocks, _INV_MAJ), _q_keys, 2, split_violation)
    acc_inv, acc_maj = map(LaurentPolynomial, counts)
    factor = LaurentPolynomial.constant(1)
    for p in parts:
        (class_counts,), _ = _fold(
            rearrangements(doubleton_partition((p,))),
            lambda rho: (stat_restricted(rho, "rsb", "OS"),), _q_keys, 1,
        )
        class_dist = LaurentPolynomial(class_counts)
        if class_dist != q_factorial(p):
            counterexample = counterexample or f"class factor for part {p} is not [{p}]_q!"
        factor = factor * class_dist
    word_inv, word_maj = map(LaurentPolynomial, _fold(words(parts), _word_inv_maj, _q_keys, 2)[0])
    return [(acc_maj, word_maj * factor), (acc_inv, word_inv * factor)], counterexample


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Check:
    """``sweep(**params)`` returns the (LHS, RHS) pairs that must be equal
    (the report shows the first that differ, else the first) and the first
    counterexample or None.  It runs after the guards have read
    ``size(params)``, the ground set, n against ``max_n`` where both sides
    are closed forms, and ``count(params)``, so passes allow_large."""

    names: tuple[str, ...]
    sweep: Callable[..., tuple[list, str | None]]
    detail: str
    size: Callable[[dict], int] = lambda params: params["n"]
    # the objects the check enumerates, and the most it may without
    # allow_large, for the count guard
    count: Callable[[dict], int] | None = None
    limit: int = DESK_COUNT_DEFAULT
    max_n: int | None = None


def _op_size(params: dict) -> int:
    """|OP(n,k)| = k! S(n,k)."""
    return factorial(params["k"]) * stirling2(params["n"], params["k"])


def _op_check(theorem: str, detail: str) -> _Check:
    """A sum over OP(n,k), drawn by the packed kernel and sized in block
    orders."""
    return _Check(
        ("n", "k"), partial(_op_sweep, theorem), detail, count=_op_size, limit=DESK_ORDERS_DEFAULT
    )


_CHECKS = {
    "thm3.1": _Check(("n", "k", "sigma"), _thm31_sweep, "identity or transport failure"),
    # the sweeps look their families and statistics up when they run, so a
    # replaced one is the one they read
    "thm3.2": _op_check("thm3.2", "distribution mismatch"),
    # upsilon runs on every object, so the class checks' limit applies
    "thm3.3": _Check(("n", "k"), _thm33_sweep, "per-type mismatch or transport failure", count=_op_size),
    "thm3.4": _op_check("thm3.4", "distribution mismatch"),
    "thm3.5": _Check(
        ("pi",), _thm35_sweep, "distribution or bijection failure", lambda p: p["pi"].n,
        lambda p: factorial(p["pi"].k),
    ),
    # words have sum(parts) letters, doubleton partitions 2 * sum(parts) elements
    "eq1.1": _Check(("parts",), lambda parts: ([(LaurentPolynomial(c), rhs) for rhs in [_q_multinomial(parts)]
        for c in _fold(words(parts), _word_inv_maj, _q_keys, 2)[0]], None),
        "word distribution mismatch", lambda p: sum(p["parts"]), lambda p: _word_count(p["parts"])),
    "eq2.3": _Check(("n", "k"), _eq23_sweep, "distribution mismatch"),
    "eq5.8": _op_check("eq5.8", "t-refined distribution mismatch"),
    "eq9.2": _op_check("eq9.2", "t-refined distribution mismatch"),
    # both sides are closed forms: nothing is enumerated
    "zezh": _Check(
        ("n", "k"), lambda n, k: ([verify_zezh(n, k)[1:]], None),
        "q-Stirling/Eulerian identity mismatch", lambda p: 0, max_n=TABLE_MAX_N,
    ),
    # one doubleton block per letter, so sum(parts)! block orders
    "doubleton": _Check(
        ("parts",), _doubleton_sweep, "factorization failure", lambda p: 2 * sum(p["parts"]),
        lambda p: factorial(sum(p["parts"])),
    ),
}

THEOREM_IDS = tuple(_CHECKS)

_NORMALISE = {
    "sigma": _as_permutation,
    "pi": _as_standard_partition,
    "parts": tuple,
}


def _prepare(theorem: str, allow_large: bool, **params) -> tuple[_Check, dict]:
    """The record of ``theorem``, a lower-case id, and its parameters,
    validated, normalised and sized by the guards, which refuse a task past
    desk scale before anything is enumerated."""
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    check = _CHECKS[theorem]
    takes = f"{theorem} takes {', '.join(check.names)}"
    missing = [name for name in check.names if name not in params]
    if missing:
        raise ValueError(f"{takes}; missing parameter {', '.join(missing)}")
    unknown = sorted(set(params) - set(check.names))
    if unknown:
        raise ValueError(f"{takes}; unknown parameter {', '.join(unknown)}")
    # a float or a bool must not be read as an int nobody asked for (1.7 as 1)
    for name in ("n", "k"):
        if name in params and type(params[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {params[name]!r}")
    parts = params.get("parts", ())
    if not (isinstance(parts, (tuple, list)) and all(type(part) is int for part in parts)):
        raise ValueError(f"parts must be a sequence of integers, got {parts!r}")
    if "k" in params and not params["n"] >= params["k"] >= 1:
        raise ValueError("need n >= k >= 1")
    params = {name: _NORMALISE.get(name, lambda value: value)(params[name]) for name in check.names}
    if "sigma" in params and params["sigma"].size != params["k"]:
        raise ValueError(f"sigma must act on k={params['k']} blocks")
    if "parts" in params:
        if any(part < 0 for part in params["parts"]):
            raise ValueError("composition parts must be nonnegative")
        # zero parts are allowed, but an empty sum leaves nothing to check
        if sum(params["parts"]) < 1:
            raise ValueError(f"parts must have a positive sum, got {params['parts']}")
    _check_scale(check.size(params), allow_large)
    if check.max_n is not None and params["n"] > check.max_n and not allow_large:
        raise DeskScaleError(
            f"n={params['n']} exceeds the closed-form limit {check.max_n}; "
            "pass --allow-large (allow_large=True) to override"
        )
    if check.count is not None:
        _check_count(check.count(params), allow_large, check.limit)
    return check, params


def verify(theorem: str, allow_large: bool = False, **params) -> VerificationReport:
    """Run one verification; see the module docstring for the id table and
    ``_CHECKS`` for each id's parameters.  A missing, unknown or malformed
    parameter raises ValueError.
    """
    theorem = theorem.lower()
    check, params = _prepare(theorem, allow_large, **params)
    pairs, counterexample = check.sweep(**params)
    unequal = [slot for slot, (lhs, rhs) in enumerate(pairs) if lhs != rhs]
    passed = not unequal and counterexample is None
    # the report shows the first pair whose sides differ, and names its slot
    # when it is not the first
    slot = unequal[0] if unequal else 0
    detail = "" if passed else f"{check.detail} in slot {slot + 1} of {len(pairs)}" if slot else check.detail
    # the report shows sigma and pi as text
    shown = {name: value if name in ("n", "k", "parts") else str(value) for name, value in params.items()}
    return VerificationReport(theorem, shown, passed, *pairs[slot], counterexample, detail)


def run_task(task: tuple[str, dict]) -> VerificationReport:
    """Picklable entry point for parallel verification."""
    theorem, params = task
    return verify(theorem, **params)
