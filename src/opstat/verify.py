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
from .paths import upsilon, xi_map
from .qpoly import (
    LaurentPolynomial,
    _tally,
    gauss_binomial,
    pq_factorial,
    q_factorial,
    stirling_pq,
    verify_zezh,
)
from .statistics import aggregate_profile, six_composites, stat, stat_restricted

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


def _as_partition(pi: Union[OrderedSetPartition, str]) -> OrderedSetPartition:
    if isinstance(pi, OrderedSetPartition):
        return pi
    return OrderedSetPartition.parse(pi)




# ---------------------------------------------------------------------------
# Euler-Mahonian sums over all ordered partitions (thm3.2 / thm3.4)
# ---------------------------------------------------------------------------

def _inv_pair(pi: OrderedSetPartition) -> tuple[tuple[int, int, int, int], ...]:
    """(mak+bInv, cinvLSB) and (mak'+bInv, cinvLSB) as p,q exponents."""
    a, b, ci, *_ = six_composites(pi)
    return (a, ci, 0, 0), (b, ci, 0, 0)


def _maj_pair(pi: OrderedSetPartition) -> tuple[tuple[int, int, int, int], ...]:
    """(mak+bMaj, cmajLSB) and (mak'+bMaj, cmajLSB) as p,q exponents."""
    *_, c, d, cm = six_composites(pi)
    return (c, cm, 0, 0), (d, cm, 0, 0)


def _verify_em(theorem: str, pair, allow_large: bool, n: int, k: int) -> VerificationReport:
    counts, _ = _tally(ordered_set_partitions(n, k, allow_large=allow_large), pair, 2)
    lhs_a, lhs_b = map(LaurentPolynomial, counts)
    rhs = (
        LaurentPolynomial.variable("q", comb(k, 2)) * pq_factorial(k) * stirling_pq(n, k)
    )
    passed = lhs_a == rhs and lhs_b == rhs
    return VerificationReport(
        theorem, {"n": n, "k": k}, passed, lhs_a, rhs, None,
        "" if passed else "distribution mismatch",
    )


# ---------------------------------------------------------------------------
# thm3.1: sigma-classes with the (p/q)^inv factor, plus the xi transport
# ---------------------------------------------------------------------------

def _xi_violation(pi: OrderedSetPartition, sigma: Permutation) -> str | None:
    """The conjugated involution must swap mak+bInv with mak'+bInv, fix
    cinvLSB and rsb_TC, and stay inside the sigma-class."""
    image = xi_map(pi)
    a, b, ci, *_ = six_composites(pi)
    a2, b2, ci2, *_ = six_composites(image)
    if (a2, b2, ci2) != (b, a, ci):
        return f"triple swap fails: {pi} -> {image}"
    if stat_restricted(pi, "rsb", "TC") != stat_restricted(image, "rsb", "TC"):
        return f"rsb_TC changes: {pi} -> {image}"
    if image.standard_form()[1] != sigma:
        return f"image leaves the sigma-class: {pi} -> {image}"
    if xi_map(image) != pi:
        return f"not an involution at {pi}"
    return None


def _verify_thm31(allow_large: bool, n: int, k: int, sigma) -> VerificationReport:
    sigma = _as_permutation(sigma)
    if sigma.size != k:
        raise ValueError(f"sigma must act on k={k} blocks")
    _check_scale(n, allow_large)
    counts, counterexample = _tally(
        sigma_partitions(n, k, sigma), _inv_pair, 2, lambda pi: _xi_violation(pi, sigma)
    )
    lhs_a, lhs_b = map(LaurentPolynomial, counts)
    inv = sigma.inversion_number()
    rhs = LaurentPolynomial.monomial(1, ep=inv, eq=k * (k - 1) - inv) * stirling_pq(n, k)
    passed = lhs_a == rhs and lhs_b == rhs and counterexample is None
    return VerificationReport(
        "thm3.1",
        {"n": n, "k": k, "sigma": sigma.one_line()},
        passed,
        lhs_a,
        rhs,
        counterexample,
        "" if passed else "identity or transport failure",
    )


# ---------------------------------------------------------------------------
# thm3.3: per-type equidistribution plus the upsilon transport
# ---------------------------------------------------------------------------

def _upsilon_violation(pi: OrderedSetPartition) -> str | None:
    """The encoding swap must preserve the type and rsb_TC and carry the
    bInv-based triple to the bMaj-based one."""
    image = upsilon(pi)
    a, b, ci, *_ = six_composites(pi)
    *_, c2, d2, cm2 = six_composites(image)
    if (c2, d2, cm2) != (a, b, ci):
        return f"triple transport fails: {pi} -> {image}"
    if image.partition_type() != pi.partition_type():
        return f"type changes: {pi} -> {image}"
    if stat_restricted(pi, "rsb", "TC") != stat_restricted(image, "rsb", "TC"):
        return f"rsb_TC changes: {pi} -> {image}"
    return None


def _type_triples(pi: OrderedSetPartition) -> tuple[tuple, ...]:
    """The bInv- and bMaj-based triples, keyed by type and as exponents."""
    lam = pi.partition_type()
    a, b, ci, c, d, cm = six_composites(pi)
    return (lam, a, b, ci), (lam, c, d, cm), (a, b, ci, 0), (c, d, cm, 0)


def _verify_thm33(allow_large: bool, n: int, k: int) -> VerificationReport:
    (inv_by_type, maj_by_type, inv, maj), counterexample = _tally(
        ordered_set_partitions(n, k, allow_large=allow_large), _type_triples, 4, _upsilon_violation
    )
    # both counters count every object of a type once, so the per-type
    # distributions differ only where a key of the first has another count
    bad_type = next(
        (key[0] for key, count in inv_by_type.items() if maj_by_type.get(key) != count), None
    )
    if bad_type is not None and counterexample is None:
        counterexample = f"type {bad_type}"
    passed = counterexample is None
    return VerificationReport(
        "thm3.3",
        {"n": n, "k": k},
        passed,
        LaurentPolynomial(maj),
        LaurentPolynomial(inv),
        counterexample,
        "" if passed else "per-type mismatch or transport failure",
    )


# ---------------------------------------------------------------------------
# thm3.5: rearrangement classes of a partition
# ---------------------------------------------------------------------------

def _inv_maj(rho: OrderedSetPartition) -> tuple[tuple[int, int, int, int], ...]:
    """INV and MAJ as q exponents."""
    prof = aggregate_profile(rho)
    return (0, prof["inv"], 0, 0), (0, prof["maj"], 0, 0)


def _verify_thm35(allow_large: bool, pi) -> VerificationReport:
    pi0 = _as_partition(pi).standard_form()[0]
    _check_scale(pi0.n, allow_large)
    (acc_inv, acc_maj), _ = _tally(rearrangements(pi0), _inv_maj, 2)

    # The round trip makes beta injective on the k! subdiagonal vectors, and
    # the class has k! members, so an image inside the class is the class.
    def beta_violation(c: tuple[int, ...]) -> str | None:
        rho = beta(pi0, c)
        if stat(rho, "maj") != sum(c):
            return f"MAJ(beta({c})) != {sum(c)} at {rho}"
        if rho.standard_form()[0] != pi0:
            return f"beta({c}) leaves the rearrangement class at {rho}"
        if beta_inv(rho) != c:
            return f"beta_inv round-trip fails at c={c}"
        return None

    counterexample = next(filter(None, map(beta_violation, subdiagonal_vectors(pi0.k))), None)
    lhs, rhs = LaurentPolynomial(acc_maj), q_factorial(pi0.k)
    passed = lhs == rhs and LaurentPolynomial(acc_inv) == rhs and counterexample is None
    return VerificationReport(
        "thm3.5",
        {"pi": pi0.to_text()},
        passed,
        lhs,
        rhs,
        counterexample,
        "" if passed else "distribution or bijection failure",
    )


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


def _verify_eq11(allow_large: bool, parts) -> VerificationReport:
    parts = tuple(int(p) for p in parts)
    _check_scale(sum(parts), allow_large)
    counts, _ = _tally(words(parts), _word_pair, 2)
    lhs_inv, lhs_maj = map(LaurentPolynomial, counts)
    rhs = _q_multinomial(parts)
    passed = lhs_inv == rhs and lhs_maj == rhs
    return VerificationReport(
        "eq1.1", {"parts": parts}, passed, lhs_inv, rhs, None,
        "" if passed else "word distribution mismatch",
    )


def _verify_doubleton(allow_large: bool, parts) -> VerificationReport:
    parts = tuple(int(p) for p in parts)
    _check_scale(2 * sum(parts), allow_large)

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
    rhs = word_maj * factor
    passed = acc_maj == rhs and acc_inv == word_inv * factor and counterexample is None
    return VerificationReport(
        "doubleton", {"parts": parts}, passed, acc_maj, rhs, counterexample,
        "" if passed else "factorization failure",
    )


# ---------------------------------------------------------------------------
# Remaining polynomial identities
# ---------------------------------------------------------------------------

def _rcb_lsb(pi: OrderedSetPartition) -> tuple[tuple[int, int, int, int]]:
    prof = aggregate_profile(pi)
    return ((prof["rcb"], prof["lsb"], 0, 0),)


def _verify_eq23(allow_large: bool, n: int, k: int) -> VerificationReport:
    _check_scale(n, allow_large)
    (counts,), _ = _tally(set_partitions(n, k), _rcb_lsb, 1)
    lhs, rhs = LaurentPolynomial(counts), stirling_pq(n, k)
    passed = lhs == rhs
    return VerificationReport(
        "eq2.3", {"n": n, "k": k}, passed, lhs, rhs, None,
        "" if passed else "distribution mismatch",
    )


def _sigma_inv_maj(pi: OrderedSetPartition, prof: dict[str, int]) -> tuple[int, int]:
    """inv and maj of pi's class permutation, from one standard form."""
    sigma = pi.standard_form()[1]
    return sigma.inversion_number(), sigma.major_index()


def _partition_maj(pi: OrderedSetPartition, prof: dict[str, int]) -> tuple[int]:
    return (prof["maj"],)


def _verify_trefinement(
    theorem: str,
    t_weights: Callable[[OrderedSetPartition, dict[str, int]], tuple[int, ...]],
    width: int,
    allow_large: bool,
    n: int,
    k: int,
) -> VerificationReport:
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

    counts, _ = _tally(ordered_set_partitions(n, k, allow_large=allow_large), weights, 2 * width)
    lhs_polys = [LaurentPolynomial(c) for c in counts]
    rhs = q_factorial(k, "t") * stirling_pq(n, k)
    passed = all(poly == rhs for poly in lhs_polys)
    return VerificationReport(
        theorem, {"n": n, "k": k}, passed, lhs_polys[0], rhs, None,
        "" if passed else "t-refined distribution mismatch",
    )


def _verify_zezh_id(allow_large: bool, n: int, k: int) -> VerificationReport:
    passed, lhs, rhs = verify_zezh(n, k)
    return VerificationReport(
        "zezh", {"n": n, "k": k}, passed, lhs, rhs, None,
        "" if passed else "q-Stirling/Eulerian identity mismatch",
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# id -> (runner, parameter names).  Every runner takes ``allow_large`` first;
# those that enumerate a family pass it to the desk-scale guard with the size
# of the family's ground set.
_CHECKS = {
    "thm3.1": (_verify_thm31, ("n", "k", "sigma")),
    "thm3.2": (partial(_verify_em, "thm3.2", _inv_pair), ("n", "k")),
    "thm3.3": (_verify_thm33, ("n", "k")),
    "thm3.4": (partial(_verify_em, "thm3.4", _maj_pair), ("n", "k")),
    "thm3.5": (_verify_thm35, ("pi",)),
    "eq1.1": (_verify_eq11, ("parts",)),
    "eq2.3": (_verify_eq23, ("n", "k")),
    "eq5.8": (partial(_verify_trefinement, "eq5.8", _sigma_inv_maj, 2), ("n", "k")),
    "eq9.2": (partial(_verify_trefinement, "eq9.2", _partition_maj, 1), ("n", "k")),
    "zezh": (_verify_zezh_id, ("n", "k")),
    "doubleton": (_verify_doubleton, ("parts",)),
}

THEOREM_IDS = tuple(_CHECKS)


def verify(theorem: str, allow_large: bool = False, **params) -> VerificationReport:
    """Run one verification; see the module docstring for the id table.

    Parameters by id: thm3.1 takes n, k, sigma; thm3.5 takes pi; eq1.1 and
    doubleton take parts; all others take n, k.  A missing or unknown
    parameter raises ValueError.
    """
    theorem = theorem.lower()
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    runner, names = _CHECKS[theorem]
    takes = f"{theorem} takes {', '.join(names)}"
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{takes}; missing parameter {', '.join(missing)}")
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"{takes}; unknown parameter {', '.join(unknown)}")
    if "k" in names and not params["n"] >= params["k"] >= 1:
        raise ValueError("need n >= k >= 1")
    return runner(allow_large, **params)


def run_task(task: tuple[str, dict]) -> VerificationReport:
    """Picklable entry point for parallel verification."""
    theorem, params = task
    return verify(theorem, **params)
