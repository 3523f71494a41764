"""Which finite groups occur as Galois groups of etale covers.

Everything here reduces to inequalities between generator counts of the
candidate group (or a canonical quotient of it) and ranks read off the
configuration.  Verdicts are three-valued: decision procedures return
Yes/No, necessary-condition checkers return No/Unknown, and regimes the
structure theorems do not settle return Unknown with the reason.
"""

from __future__ import annotations

from collections import namedtuple

from .curves import (CurveConfiguration, delta, rank_report,
                     require_projective)
from .errors import require
from .groups import (PermutationGroup, abelianization_p_rank, is_p_group,
                     is_prime, min_generators, nakajima_tG, quasi_p_part,
                     quotient)


class RealizabilityVerdict(namedtuple("RealizabilityVerdict",
                                      "verdict rule evidence")):
    """verdict is "Yes", "No" or "Unknown"; rule names the deciding rule
    and evidence is a dict of what it compared."""
    __slots__ = ()

    def __new__(cls, verdict: str, rule: str, evidence: dict):
        require(verdict in ("Yes", "No", "Unknown"), "INTERNAL_INVARIANT",
                "verdict must be Yes, No or Unknown")
        return tuple.__new__(cls, (verdict, rule, evidence))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates as well
        return cls(*iterable)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "evidence": dict(self.evidence),
                "rule": self.rule}


def _check_char(p):
    require(p == 0 or is_prime(p), "BAD_CHARACTERISTIC",
            f"{p} is not prime or 0")


def _affine_ranks(mode, p, config, no_removed):
    """rank_report(config) after the guards of the affine modes, in order:
    one component, a valid config, the characteristic, a removed point."""
    require(len(config.components) == 1, "NOT_AFFINE",
            f"--mode {mode} needs a single component")
    ranks = rank_report(config)
    _check_char(p)
    require(ranks.tame_rank is not None, "NOT_AFFINE", no_removed)
    return ranks


def affine_realizable(group: PermutationGroup, p: int,
                      config: CurveConfiguration) -> RealizabilityVerdict:
    """G occurs over the affine curve iff d(G/p(G)) <= the tame rank; for
    p = 0 the quasi-p part p(G) is trivial and the test is d(G) <= it."""
    ranks = _affine_ranks("affine", p, config,
                          "affine curve needs at least one removed point")
    reduced = quotient(group, quasi_p_part(group, p)).image
    d = min_generators(reduced)
    evidence = {"d_G_mod_pG": d, "bound": ranks.tame_rank,
                "g": config.components[0].genus,
                "r": len(config.removed_points), "delta": ranks.affine_delta}
    verdict = "Yes" if d <= ranks.tame_rank else "No"
    return RealizabilityVerdict(verdict, "affine-abhyankar", evidence)


def pro_p_rank(config: CurveConfiguration) -> int:
    """Rank of the maximal pro-p quotient, Σ s_i + δ, for a configuration
    of characteristic p > 0."""
    require_projective(config)
    require(config.characteristic > 0, "BAD_CHARACTERISTIC",
            "pro-p rank needs p > 0")
    return rank_report(config).pro_p_rank


def hasse_witt_check(group: PermutationGroup, p: int,
                     config: CurveConfiguration) -> RealizabilityVerdict:
    """Necessary condition sigma(G) <= sum g_i + delta; never says Yes."""
    _check_char(p)
    require(p > 0, "BAD_CHARACTERISTIC", "Hasse-Witt needs p > 0")
    require_projective(config)
    sigma = abelianization_p_rank(group, p)
    bound = sum(c.genus for c in config.components) + delta(config)
    evidence = {"sigma": sigma, "bound": bound}
    if sigma > bound:
        return RealizabilityVerdict("No", "hasse-witt", evidence)
    return RealizabilityVerdict("Unknown", "hasse-witt",
                                {**evidence, "reason": "necessary condition holds"})


def nakajima_check(group: PermutationGroup, p: int,
                   config: CurveConfiguration) -> RealizabilityVerdict:
    """Necessary condition t_G <= sum g_i + delta; t_G is only computed
    for p-groups (where it equals d(G))."""
    _check_char(p)
    require(p > 0, "BAD_CHARACTERISTIC", "Nakajima condition needs p > 0")
    require_projective(config)
    bound = sum(c.genus for c in config.components) + delta(config)
    t = nakajima_tG(group, p)
    if t is None:
        return RealizabilityVerdict(
            "Unknown", "nakajima",
            {"bound": bound, "reason": "t_G unsupported for non-p-groups"})
    evidence = {"t_G": t, "bound": bound}
    if t > bound:
        return RealizabilityVerdict("No", "nakajima", evidence)
    return RealizabilityVerdict("Unknown", "nakajima",
                                {**evidence, "reason": "necessary condition holds"})


def projective_realizable(group: PermutationGroup, p: int,
                          config: CurveConfiguration) -> RealizabilityVerdict:
    """Etale realizability over a connected projective configuration.

    Genus-0 components make the free-product structure entirely free of
    rank delta, so the answer is exact: d(G) <= delta.  With positive
    genus the free factor still gives a Yes when d(G) <= delta, the rank
    and necessary-condition bounds give No, and the remaining cases are
    Unknown (smooth positive-genus quotients are not decided here).
    """
    _check_char(p)
    require_projective(config)
    ranks = rank_report(config)
    d, delta_ = min_generators(group), ranks.delta
    if all(c.genus == 0 for c in config.components):
        evidence = {"d_G": d, "delta": delta_}
        verdict = "Yes" if d <= delta_ else "No"
        return RealizabilityVerdict(verdict, "free-product-genus0", evidence)

    if d <= delta_:
        return RealizabilityVerdict("Yes", "free-factor",
                                    {"d_G": d, "delta": delta_})
    rank_bound = ranks.pi1_rank_bound
    if d > rank_bound:
        return RealizabilityVerdict("No", "rank-bound",
                                    {"d_G": d, "bound": rank_bound})
    if p > 0:
        hw = hasse_witt_check(group, p, config)
        if hw.verdict == "No":
            return hw
        # Hasse-Witt subsumes nakajima_check: for a p-group
        # t_G = d(G) = sigma(G) (Burnside's basis theorem), same bound
        if is_p_group(group, p) and d > ranks.pro_p_rank:
            return RealizabilityVerdict("No", "pro-p-rank",
                                        {"d_G": d, "bound": ranks.pro_p_rank})
    return RealizabilityVerdict(
        "Unknown", "structure",
        {"d_G": d, "delta": delta_, "rank_bound": rank_bound,
         "reason": "positive-genus component quotients undecided"})


def tame_realizable(group: PermutationGroup, p: int,
                    config: CurveConfiguration) -> RealizabilityVerdict:
    """Tame quotients: free of the tame rank of rank_report away from p;
    when p divides |G| only the rank bound applies."""
    bound = _affine_ranks("tame", p, config,
                          "tame criterion needs a removed point").tame_rank
    d = min_generators(group)
    evidence = {"d_G": d, "bound": bound}
    if p == 0 or group.order() % p != 0:
        verdict = "Yes" if d <= bound else "No"
        return RealizabilityVerdict(verdict, "tame-free", evidence)
    if d > bound:
        return RealizabilityVerdict("No", "tame-rank-bound", evidence)
    return RealizabilityVerdict(
        "Unknown", "tame-rank-bound",
        {**evidence, "reason": "order divisible by p; only the rank bound applies"})
