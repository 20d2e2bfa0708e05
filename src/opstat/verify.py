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

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Sequence, Union

from .core import (
    OrderedSetPartition,
    Permutation,
    decompose_doubleton,
    doubleton_partition,
    inversion_number,
    major_index,
)
from .families import (
    _check_scale,
    beta,
    beta_inv,
    ordered_set_partitions,
    rearrangements,
    set_partitions,
    sigma_partitions,
    subdiagonal_vectors,
    words,
)
from .paths import LatticePath, step_word, upsilon, xi_map
from .qpoly import (
    LaurentPolynomial,
    _tally,
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
    six_composites,
    stat,
    stat_restricted,
    table_composites,
    transport_side,
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
        out = {
            "theorem": self.theorem,
            "params": {key: str(value) for key, value in self.params.items()},
            "pass": self.passed,
            "lhs": self.lhs.to_text() if self.lhs is not None else None,
            "rhs": self.rhs.to_text() if self.rhs is not None else None,
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
    return Permutation(tuple(sigma))


# ---------------------------------------------------------------------------
# Euler-Mahonian sums over all ordered partitions (thm3.2 / thm3.4)
# ---------------------------------------------------------------------------

def _em_pair(offset: int, composites: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """(mak+bStat, cstatLSB) and (mak'+bStat, cstatLSB) as p,q exponents,
    for bStat = bInv (offset 0) or bMaj (offset 3)."""
    a, b, c = composites[offset:offset + 3]
    return (a, c, 0, 0), (b, c, 0, 0)


def _em_sweep(offset: int, n: int, k: int) -> tuple[list, None]:
    """Each object's composites come from the pair table of its blocks,
    ``table_composites``, which equals ``six_composites``."""
    family = ordered_set_partitions(n, k, allow_large=True)
    counts, _ = _tally(map(table_composites, family), partial(_em_pair, offset), 2)
    rhs = LaurentPolynomial.variable("q", comb(k, 2)) * pq_factorial(k) * stirling_pq(n, k)
    return [(LaurentPolynomial(c), rhs) for c in counts], None


# ---------------------------------------------------------------------------
# thm3.1: sigma-classes with the (p/q)^inv factor, plus the xi transport
# ---------------------------------------------------------------------------

# Each transport check reads both of its sides from ``transport_side``:
# (mak+bInv, mak'+bInv, cinvLSB, mak+bMaj, mak'+bMaj, cmajLSB, rsb_TC, INV,
# MAJ).  The family is tallied as (pi, side) rows, so pi's side is computed
# once for the distribution keys and the pointwise check.

def _with_side(family):
    return ((pi, transport_side(pi)) for pi in family)


def _xi_violation(
    pi: OrderedSetPartition, sigma: Permutation, side: tuple[int, ...] | None = None
) -> str | None:
    """The conjugated involution must swap mak+bInv with mak'+bInv, fix
    cinvLSB and rsb_TC, and stay inside the sigma-class.  ``side`` is pi's
    ``transport_side`` when the caller has already computed it."""
    if side is None:
        side = transport_side(pi)
    image = xi_map(pi)
    a, b, ci, _, _, _, rsb_tc, *_ = side
    a2, b2, ci2, _, _, _, rsb_tc2, *_ = transport_side(image)
    if (a2, b2, ci2) != (b, a, ci):
        return f"triple swap fails: {pi} -> {image}"
    if rsb_tc != rsb_tc2:
        return f"rsb_TC changes: {pi} -> {image}"
    if image.standard_form()[1] != sigma:
        return f"image leaves the sigma-class: {pi} -> {image}"
    if xi_map(image) != pi:
        return f"not an involution at {pi}"
    return None


def _thm31_sweep(n: int, k: int, sigma: Permutation) -> tuple[list, str | None]:
    counts, counterexample = _tally(
        _with_side(sigma_partitions(n, k, sigma)),
        lambda row: _em_pair(0, row[1]),
        2,
        lambda row: _xi_violation(row[0], sigma, row[1]),
    )
    inv = sigma.inversion_number()
    rhs = LaurentPolynomial.monomial(1, ep=inv, eq=k * (k - 1) - inv) * stirling_pq(n, k)
    return [(LaurentPolynomial(c), rhs) for c in counts], counterexample


# ---------------------------------------------------------------------------
# thm3.3: per-type equidistribution plus the upsilon transport
# ---------------------------------------------------------------------------

def _upsilon_violation(pi: OrderedSetPartition, side: tuple[int, ...]) -> str | None:
    """The encoding swap must preserve the type and rsb_TC and carry the
    bInv-based triple to the bMaj-based one."""
    image = upsilon(pi)
    a, b, ci, _, _, _, rsb_tc, *_ = side
    _, _, _, c2, d2, cm2, rsb_tc2, *_ = transport_side(image)
    if (c2, d2, cm2) != (a, b, ci):
        return f"triple transport fails: {pi} -> {image}"
    if step_word(image) != step_word(pi):
        return f"type changes: {pi} -> {image}"
    if rsb_tc != rsb_tc2:
        return f"rsb_TC changes: {pi} -> {image}"
    return None


def _type_triples(pi: OrderedSetPartition, side: tuple[int, ...]) -> tuple[tuple, ...]:
    """The bInv- and bMaj-based triples, keyed by type (as the path's step
    word) and as exponents."""
    word = step_word(pi)
    a, b, ci, c, d, cm, *_ = side
    return (word, a, b, ci), (word, c, d, cm), (a, b, ci, 0), (c, d, cm, 0)


def _thm33_sweep(n: int, k: int) -> tuple[list, str | None]:
    (inv_by_type, maj_by_type, inv, maj), counterexample = _tally(
        _with_side(ordered_set_partitions(n, k, allow_large=True)),
        lambda row: _type_triples(*row),
        4,
        lambda row: _upsilon_violation(*row),
    )
    # both counters count every object of a type once, so the per-type
    # distributions differ only where a key of the first has another count
    bad_word = next(
        (key[0] for key, count in inv_by_type.items() if maj_by_type.get(key) != count), None
    )
    if bad_word is not None and counterexample is None:
        counterexample = f"type {LatticePath(tuple(bad_word)).partition_type()}"
    # equal per-type distributions make the totals equal
    return [(LaurentPolynomial(maj), LaurentPolynomial(inv))], counterexample


# ---------------------------------------------------------------------------
# thm3.5: rearrangement classes of a partition
# ---------------------------------------------------------------------------

def _inv_maj(rho: OrderedSetPartition) -> tuple[tuple[int, int, int, int], ...]:
    """INV and MAJ as q exponents."""
    *_, inv, maj = transport_side(rho)
    return (0, inv, 0, 0), (0, maj, 0, 0)


def _thm35_sweep(pi: OrderedSetPartition) -> tuple[list, str | None]:
    """``pi`` is in standard form."""
    (acc_inv, acc_maj), _ = _tally(rearrangements(pi), _inv_maj, 2)

    # The round trip makes beta injective on the k! subdiagonal vectors, and
    # the class has k! members, so an image inside the class is the class.
    def beta_violation(c: tuple[int, ...]) -> str | None:
        rho = beta(pi, c)
        *_, maj = transport_side(rho)
        if maj != sum(c):
            return f"MAJ(beta({c})) != {sum(c)} at {rho}"
        if rho.standard_form()[0] != pi:
            return f"beta({c}) leaves the rearrangement class at {rho}"
        if beta_inv(rho) != c:
            return f"beta_inv round-trip fails at c={c}"
        return None

    counterexample = next(filter(None, map(beta_violation, subdiagonal_vectors(pi.k))), None)
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


def _word_pair(w: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """inv and maj of a word as q exponents."""
    return (0, inversion_number(w), 0, 0), (0, major_index(w), 0, 0)


def _eq11_sweep(parts: tuple[int, ...]) -> tuple[list, None]:
    counts, _ = _tally(words(parts), _word_pair, 2)
    rhs = _q_multinomial(parts)
    return [(LaurentPolynomial(c), rhs) for c in counts], None


def _doubleton_sweep(parts: tuple[int, ...]) -> tuple[list, str | None]:
    def split_violation(rho: OrderedSetPartition) -> str | None:
        w, components = decompose_doubleton(rho, parts)
        prof = aggregate_profile(rho)
        if prof["binv"] != inversion_number(w) or prof["bmaj"] != major_index(w):
            return f"block stats differ from word stats at {rho}"
        if prof["rsb_os"] != sum(stat_restricted(comp, "rsb", "OS") for comp in components if comp.n):
            return f"rsb_OS does not split at {rho}"
        return None

    counts, counterexample = _tally(
        rearrangements(doubleton_partition(parts)), _inv_maj, 2, split_violation
    )
    acc_inv, acc_maj = map(LaurentPolynomial, counts)
    factor = LaurentPolynomial.constant(1)
    for p in parts:
        (class_counts,), _ = _tally(
            rearrangements(doubleton_partition((p,))),
            lambda rho: ((0, stat_restricted(rho, "rsb", "OS"), 0, 0),), 1,
        )
        class_dist = LaurentPolynomial(class_counts)
        if class_dist != q_factorial(p):
            counterexample = counterexample or f"class factor for part {p} is not [{p}]_q!"
        factor = factor * class_dist
    word_inv, word_maj = map(LaurentPolynomial, _tally(words(parts), _word_pair, 2)[0])
    return [(acc_maj, word_maj * factor), (acc_inv, word_inv * factor)], counterexample


# ---------------------------------------------------------------------------
# Remaining polynomial identities
# ---------------------------------------------------------------------------

def _rcb_lsb(pi: OrderedSetPartition) -> tuple[tuple[int, int, int, int]]:
    prof = aggregate_profile(pi)
    return ((prof["rcb"], prof["lsb"], 0, 0),)


def _eq23_sweep(n: int, k: int) -> tuple[list, None]:
    (counts,), _ = _tally(set_partitions(n, k), _rcb_lsb, 1)
    return [(LaurentPolynomial(counts), stirling_pq(n, k))], None


def _sigma_inv_maj(pi: OrderedSetPartition, prof: dict[str, int]) -> tuple[int, int]:
    """inv and maj of pi's class permutation, from one standard form."""
    sigma = pi.standard_form()[1]
    return sigma.inversion_number(), sigma.major_index()


def _partition_maj(pi: OrderedSetPartition, prof: dict[str, int]) -> tuple[int]:
    return (prof["maj"],)


def _t_sweep(t_weights, width: int, n: int, k: int) -> tuple[list, None]:
    """eq5.8 (t marks inv/maj of the class permutation) and eq9.2 (t marks
    MAJ): both p-weights cls+rsb_TC and opb+rsb_TC against [k]_t! S_{p,q}.
    ``t_weights(pi, profile)`` gives the ``width`` t exponents."""

    def weights(pi: OrderedSetPartition) -> list[tuple[int, int, int, int]]:
        prof = aggregate_profile(pi)
        q_weight = prof["sb"] - prof["rsb_tc"]
        ts = t_weights(pi, prof)
        return [
            (prof[p_stat] + prof["rsb_tc"], q_weight, t_weight, 0)
            for p_stat in ("cls", "opb")
            for t_weight in ts
        ]

    counts, _ = _tally(ordered_set_partitions(n, k, allow_large=True), weights, 2 * width)
    rhs = q_factorial(k, "t") * stirling_pq(n, k)
    return [(LaurentPolynomial(c), rhs) for c in counts], None


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Check:
    """``sweep(**params)`` returns the (LHS, RHS) pairs that must be equal
    (the report shows the first) and the first counterexample or None.  It
    runs after the guard has read ``size(params)``, so passes allow_large."""

    names: tuple[str, ...]
    sweep: Callable[..., tuple[list, str | None]]
    detail: str
    size: Callable[[dict], int] = lambda params: params["n"]


_CHECKS = {
    "thm3.1": _Check(("n", "k", "sigma"), _thm31_sweep, "identity or transport failure"),
    "thm3.2": _Check(("n", "k"), partial(_em_sweep, 0), "distribution mismatch"),
    "thm3.3": _Check(("n", "k"), _thm33_sweep, "per-type mismatch or transport failure"),
    "thm3.4": _Check(("n", "k"), partial(_em_sweep, 3), "distribution mismatch"),
    "thm3.5": _Check(("pi",), _thm35_sweep, "distribution or bijection failure", lambda p: p["pi"].n),
    # words have sum(parts) letters, doubleton partitions 2 * sum(parts) elements
    "eq1.1": _Check(("parts",), _eq11_sweep, "word distribution mismatch", lambda p: sum(p["parts"])),
    "eq2.3": _Check(("n", "k"), _eq23_sweep, "distribution mismatch"),
    "eq5.8": _Check(("n", "k"), partial(_t_sweep, _sigma_inv_maj, 2), "t-refined distribution mismatch"),
    "eq9.2": _Check(("n", "k"), partial(_t_sweep, _partition_maj, 1), "t-refined distribution mismatch"),
    # both sides are closed forms: nothing is enumerated
    "zezh": _Check(
        ("n", "k"), lambda n, k: ([verify_zezh(n, k)[1:]], None),
        "q-Stirling/Eulerian identity mismatch", lambda p: 0,
    ),
    "doubleton": _Check(("parts",), _doubleton_sweep, "factorization failure", lambda p: 2 * sum(p["parts"])),
}

THEOREM_IDS = tuple(_CHECKS)

_NORMALISE = {
    "sigma": _as_permutation,
    "pi": lambda pi: (OrderedSetPartition.parse(pi) if isinstance(pi, str) else pi).standard_form()[0],
    "parts": lambda parts: tuple(int(p) for p in parts),
}


def verify(theorem: str, allow_large: bool = False, **params) -> VerificationReport:
    """Run one verification; see the module docstring for the id table and
    ``_CHECKS`` for each id's parameters.  A missing, unknown or malformed
    parameter raises ValueError.
    """
    theorem = theorem.lower()
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
    pairs, counterexample = check.sweep(**params)
    passed = all(lhs == rhs for lhs, rhs in pairs) and counterexample is None
    # the report shows sigma and pi as text
    shown = {name: value if name in ("n", "k", "parts") else str(value) for name, value in params.items()}
    return VerificationReport(
        theorem, shown, passed, *pairs[0], counterexample, "" if passed else check.detail
    )


def run_task(task: tuple[str, dict]) -> VerificationReport:
    """Picklable entry point for parallel verification."""
    theorem, params = task
    return verify(theorem, **params)
