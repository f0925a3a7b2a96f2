package repro.core

import repro.topic.TopicModel

/** Personalized influential keywords suggestion (paper §II-D, after Li
  * et al., SIGMOD 2017): given a target user, find the k-sized keyword
  * set W maximizing the target's influence spread under γ(W) — the
  * user's "selling points".
  *
  * The problem is NP-hard (and NP-hard to approximate within any
  * constant), so like the paper we search a candidate space with a
  * sampling-based spread estimator:
  *
  *   - candidate pool: keywords topically aligned with where the target
  *     actually exerts influence (their out-edges' topic mass);
  *   - estimator: the [[RRIndex]] influencer index — no online sampling
  *     from scratch; a candidate's γ mixes only the stored edges its
  *     walks test, membership tests early-exit (pruning) and the
  *     expensive full-sample estimate is *delayed* to a small set of
  *     stage-1 survivors (two-stage evaluation).
  *
  * The fresh-Monte-Carlo enumeration baseline ([[suggestMC]]) is what
  * table T4 compares against; [[bestByExhaustiveMC]] is the ground truth
  * for quality table T3.
  */
object KeywordSuggest {

  /** A suggestion outcome.
    *
    * @param estSpread      estimated spread of the winning keyword set
    * @param evaluatedSets  candidate sets scored at full precision
    */
  final case class SuggestResult(
      keywords: Seq[String],
      gamma: Array[Double],
      estSpread: Double,
      evaluatedSets: Int,
      millis: Long,
  )

  /** Candidate keyword pool for a target user: rank keywords by
    * `Σ_z weight_z(u)·p(z|w)`, where `weight_z(u)` is the topic-z
    * activation mass on u's out-edges (where the user can actually
    * influence) and `p(z|w) ∝ p(z)p(w|z)` links keywords to topics.
    */
  def candidatePool(model: TopicModel, target: Int, poolSize: Int): Seq[String] = {
    val g = model.graph
    val z = model.numTopics
    val weight = new Array[Double](z)
    var e = g.outOffsets(target)
    while (e < g.outOffsets(target + 1)) {
      var t = 0
      while (t < z) { weight(t) += g.topicProb(e, t); t += 1 }
      e += 1
    }
    val scores = model.vocab.indices.map { w =>
      // p(z|w) ∝ prior_z · φ_zw
      val joint = (0 until z).map(t => model.prior(t) * model.phi(t)(w))
      val s = joint.sum
      val pzw = if (s > 0) joint.map(_ / s) else joint
      (w, (0 until z).map(t => weight(t) * pzw(t)).sum)
    }
    scores.sortBy(-_._2).take(poolSize).map(p => model.vocab(p._1))
  }

  /** All k-subsets of the pool, in deterministic order. */
  def kSubsets(pool: Seq[String], k: Int): Iterator[Seq[String]] =
    pool.combinations(k)

  private val Stage1Frac = 0.2
  private val KeepTop = 8

  /** Index-based suggestion with two-stage pruning: score every candidate
    * set on a `Stage1Frac` prefix of the index samples, keep the best
    * `KeepTop`, then re-score only those on the full index.
    */
  def suggestWithIndex(
      model: TopicModel,
      index: RRIndex.Index,
      target: Int,
      k: Int,
      poolSize: Int = 12,
  ): SuggestResult = {
    val t0 = System.nanoTime()
    val pool = candidatePool(model, target, poolSize)
    val sets = kSubsets(pool, k).toVector
    val stage1 = math.max(1, (index.numSamples * Stage1Frac).toInt)
    val screened = sets
      .map { w =>
        val gamma = model.gammaFor(w)
        (w, gamma, index.estimateUserSpreadUnder(gamma, target, restrict = stage1))
      }
      .sortBy(-_._3)
      .take(KeepTop)
    val winner = screened
      .map { case (w, gamma, _) => (w, gamma, index.estimateUserSpreadUnder(gamma, target)) }
      .maxBy(_._3)
    SuggestResult(winner._1, winner._2, winner._3, screened.length, (System.nanoTime() - t0) / 1000000)
  }

  /** Baseline: same candidate enumeration, but every set pays a fresh
    * Monte-Carlo spread estimation (the "online sampling from scratch"
    * the index exists to avoid).
    */
  def suggestMC(
      model: TopicModel,
      target: Int,
      k: Int,
      poolSize: Int = 12,
      numSamples: Int = 200,
      seed: Long = 29L,
  ): SuggestResult =
    bestByMC(model, target, kSubsets(candidatePool(model, target, poolSize), k), numSamples, seed)

  /** Quality ground truth: exhaustive search over *all* k-subsets of the
    * full vocabulary with a high-precision estimator. Only feasible at
    * test scale; table T3 reports the ratio achieved against this.
    */
  def bestByExhaustiveMC(
      model: TopicModel,
      target: Int,
      k: Int,
      numSamples: Int = 500,
      seed: Long = 29L,
  ): SuggestResult =
    bestByMC(model, target, kSubsets(model.vocab.toSeq, k), numSamples, seed)

  /** Score every candidate set with a fresh MC estimate and keep the first
    * best. `sets` is by-name so that `millis` also covers building the
    * candidates (for [[suggestMC]], the pool).
    */
  private def bestByMC(
      model: TopicModel,
      target: Int,
      sets: => Iterator[Seq[String]],
      numSamples: Int,
      seed: Long,
  ): SuggestResult = {
    val t0 = System.nanoTime()
    val g = model.graph
    val scored = sets.toVector.map { w =>
      val gamma = model.gammaFor(w)
      val probs = g.mixedProbs(gamma)
      (w, gamma, SpreadEstimator.mcSpread(g, probs, Seq(target), numSamples, seed))
    }
    val winner = scored.maxBy(_._3)
    SuggestResult(winner._1, winner._2, winner._3, scored.length, (System.nanoTime() - t0) / 1000000)
  }

  /** Re-estimate a chosen keyword set's spread with an independent
    * high-precision MC run — used when comparing methods fairly.
    */
  def evaluate(
      model: TopicModel,
      target: Int,
      keywords: Seq[String],
      numSamples: Int = 1000,
      seed: Long = 31L,
  ): Double = {
    val gamma = model.gammaFor(keywords)
    val probs = model.graph.mixedProbs(gamma)
    SpreadEstimator.mcSpread(model.graph, probs, Seq(target), numSamples, seed)
  }
}
