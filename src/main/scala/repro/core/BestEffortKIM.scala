package repro.core

import repro.data.CompactGraph

/** Keyword-based influence maximization, online best-effort framework
  * (paper §II-C).
  *
  * Offline: a γ-independent per-user upper bound ([[Bounds.precomputedUB]])
  * is computed once on the `p^max` dominating graph. Online, for a query
  * keyword set W:
  *
  *   1. derive γ = p(z|W) by Bayes (topic model, §II-B);
  *   2. materialize the γ-mixed edge probabilities (cheap: E·Z flops);
  *   3. tighten the bounds on the query graph for a few hops
  *      ([[Bounds.localUB]] — the "local graph / neighborhood based"
  *      estimators);
  *   4. run CELF seeded with those optimistic bounds: exact Monte-Carlo
  *      spread is computed *only* for users popped off the bound-ordered
  *      queue, "so as to prune insignificant users".
  *
  * The output quality matches naïve greedy on the same possible worlds
  * (tests assert it) while evaluating far fewer spreads — the measured
  * pruning power is table T2.
  */
object BestEffortKIM {

  /** The online query path's parameters. Callers set only the sample
    * count R; the rest are fixed: 3 rounds of bound tightening, a slack
    * of 1.05 on the bounds (sound for the *exact* spread, while CELF
    * compares them with *MC estimates*, which sampling noise can push
    * above it) and the worlds' seed.
    */
  final case class Config(numSamples: Int = 200) {
    val boundHops: Int = 3
    val slack: Double = 1.05
    val seed: Long = 11L
  }

  /** Answer one query: top-k seed users for the topic distribution γ
    * (step 1, deriving γ from the keywords, is the caller's
    * `TopicModel.gammaFor`).
    */
  def queryGamma(
      g: CompactGraph,
      precomp: Array[Double],
      gamma: Array[Double],
      k: Int,
      cfg: Config = Config(),
  ): GreedyIM.IMResult = {
    val probs = g.mixedProbs(gamma)
    val ub = Bounds.localUB(g, probs, precomp, cfg.boundHops)
    val inflated = ub.map(_ * cfg.slack)
    GreedyIM.celf(g, probs, k, cfg.numSamples, cfg.seed, initialUpper = Some(inflated))
  }
}
