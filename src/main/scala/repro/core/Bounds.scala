package repro.core

import repro.data.CompactGraph

/** Upper bounds on single-user influence spread — the three estimators
  * of the paper's best-effort framework (§II-C: "precomputation based,
  * local graph based, and neighborhood based methods"). The neighborhood
  * estimator is [[localUB]] with one hop.
  *
  * All bounds here are *sound* with respect to the exact expected spread
  * (property-tested against exact spreads on tiny graphs):
  *
  *   - `σ(u) ≤ n` trivially, and
  *   - union bound over the first hop: `σ_p(u) ≤ 1 + Σ_{v∈N⁺(u)} p_{uv}·σ_p(v)`,
  *   - monotonicity in edge probabilities: `p ≤ q` pointwise ⇒ `σ_p ≤ σ_q`;
  *     with `p^max_e = max_z pp^z_e ≥ Σ_z γ_z pp^z_e` for any simplex γ,
  *     a bound under `p^max` is γ-independent and precomputable offline.
  *
  * Note `Σ_z γ_z·σ_z(u)` (mixing per-topic spreads) is NOT a valid upper
  * bound — a 2-edge path with orthogonal topic probabilities and uniform
  * γ is a counterexample — so per-topic spreads are never used as bounds
  * here (see DESIGN.md §3).
  */
object Bounds {

  /** Offline, query-independent bound: value iteration of the operator
    * `UB(u) ← min(UB(u), 1 + Σ p^max_{uv}·UB(v))` starting from the sound
    * `UB ≡ n` — that is, [[localUB]] under `p^max`. Every application
    * preserves soundness and the sequence is non-increasing (so it stays
    * at most n), hence any finite iteration count yields a valid bound;
    * the offline pass runs 50.
    */
  def precomputedUB(g: CompactGraph): Array[Double] =
    localUB(g, g.maxProbs(), Array.fill(g.n)(g.n.toDouble), 50)

  /** Query-aware r-hop refinement ("local graph based"): r rounds of the
    * union-bound operator under the query's own edge probabilities,
    * seeded with the sound precomputed bound. Soundness: if `ub` is sound
    * for γ (true for `base`, since `p_γ ≤ p^max`), one application under
    * `p_γ` is again sound; taking `min` with the previous value keeps the
    * sequence non-increasing.
    */
  def localUB(
      g: CompactGraph,
      probs: Array[Double],
      base: Array[Double],
      hops: Int,
  ): Array[Double] = {
    var ub = base.clone()
    var it = 0
    while (it < hops) {
      val next = new Array[Double](g.n)
      var u = 0
      while (u < g.n) {
        var acc = 1.0
        var e = g.outOffsets(u)
        while (e < g.outOffsets(u + 1)) { acc += probs(e) * ub(g.outDst(e)); e += 1 }
        next(u) = math.min(acc, ub(u))
        u += 1
      }
      ub = next
      it += 1
    }
    ub
  }
}
