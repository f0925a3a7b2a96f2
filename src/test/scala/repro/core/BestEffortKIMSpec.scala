package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.data.{SocialConfig, SocialDataGen}
import repro.engine.Octopus
import repro.topic.TopicEM

/** Best-effort online KIM: naïve-greedy quality at a fraction of the
  * spread evaluations.
  */
class BestEffortKIMSpec extends SparkSpec {

  private lazy val ds = SocialDataGen.generate(spark,
    SocialConfig(numUsers = 200, avgOutDegree = 5, numTopics = 3, vocabSize = 30,
      numItems = 100, seed = 14L))
  private lazy val model = TopicEM.fromTruth(ds)
  private lazy val precomp = Bounds.precomputedUB(model.graph)

  test("matches CELF output quality on the same worlds") {
    val gamma = TestGraphs.pureTopic(model.numTopics, 0)
    val probs = model.graph.mixedProbs(gamma)
    val cfg = BestEffortKIM.Config(numSamples = 150)
    val be = BestEffortKIM.queryGamma(model.graph, precomp, gamma, 3, cfg)
    val celf = GreedyIM.celf(model.graph, probs, 3, 150, cfg.seed)
    assert(be.seeds == celf.seeds, s"be=${be.seeds} celf=${celf.seeds}")
    assert(be.spread == celf.spread, s"be=${be.spread} celf=${celf.spread}")
  }

  test("evaluates far fewer spreads than CELF (the pruning claim)") {
    val gamma = TestGraphs.pureTopic(model.numTopics, 1)
    val probs = model.graph.mixedProbs(gamma)
    val cfg = BestEffortKIM.Config(numSamples = 150)
    val be = BestEffortKIM.queryGamma(model.graph, precomp, gamma, 3, cfg)
    val celf = GreedyIM.celf(model.graph, probs, 3, 150, cfg.seed)
    assert(be.spreadEvals < celf.spreadEvals,
      s"best-effort ${be.spreadEvals} vs celf ${celf.spreadEvals}")
    assert(be.spreadEvals < model.graph.n, "must not evaluate every user")
  }

  test("keyword entry point derives the same result as queryGamma") {
    val kws = Seq(SocialDataGen.keywordName(0, 0), SocialDataGen.keywordName(0, 1))
    val (_, viaKeywords, gamma) = Octopus.build(spark, ds).influentialUsers(kws, 2)
    val direct = BestEffortKIM.queryGamma(model.graph, precomp, model.gammaFor(kws), 2)
    assert(viaKeywords.seeds == direct.seeds)
    assert(math.abs(gamma.sum - 1.0) < 1e-9)
  }

  test("result is deterministic") {
    val gamma = TestGraphs.pureTopic(model.numTopics, 2)
    val a = BestEffortKIM.queryGamma(model.graph, precomp, gamma, 3)
    val b = BestEffortKIM.queryGamma(model.graph, precomp, gamma, 3)
    assert(a.seeds == b.seeds && a.spread == b.spread)
  }

  test("returns k distinct seeds") {
    val gamma = TestGraphs.randomGamma(3, 3)
    val r = BestEffortKIM.queryGamma(model.graph, precomp, gamma, 5)
    assert(r.seeds.size == 5 && r.seeds.distinct.size == 5)
  }

  test("quality holds on tiny graphs against exhaustive search") {
    val g = TestGraphs.random(77, n = 8, z = 2, maxEdges = 12)
    val pre = Bounds.precomputedUB(g)
    val gamma = Array(0.5, 0.5)
    val probs = g.mixedProbs(gamma)
    val r = BestEffortKIM.queryGamma(g, pre, gamma, 2, BestEffortKIM.Config(numSamples = 400))
    val exactOf = (s: Seq[Int]) => TestGraphs.exactSpread(g, probs, s)
    val best = (0 until g.n).combinations(2).map(c => exactOf(c)).max
    // greedy guarantee: ≥ (1 − 1/e) of optimum; allow MC noise on top
    assert(exactOf(r.seeds) >= 0.6 * best, s"got ${exactOf(r.seeds)} vs best $best")
  }
}
