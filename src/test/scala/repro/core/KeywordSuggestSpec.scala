package repro.core

import repro.SparkSpec
import repro.data.{SocialConfig, SocialDataGen}
import repro.topic.TopicEM

/** Personalized influential keyword suggestion: candidate pool shape,
  * index-based search vs fresh-MC search vs exhaustive optimum.
  */
class KeywordSuggestSpec extends SparkSpec {

  private lazy val ds = SocialDataGen.generate(spark,
    SocialConfig(numUsers = 120, avgOutDegree = 5, numTopics = 3, vocabSize = 18,
      numItems = 100, seed = 33L))
  private lazy val model = TopicEM.fromTruth(ds)
  private lazy val g = model.graph
  private lazy val index = RRIndex.build(g, numSamples = 400, seed = 3L)

  private def topicOf(u: Int): Int =
    ds.users.collect().find(_.getLong(0) == u).get.getInt(2)

  private def hub: Int = (0 until g.n).maxBy(g.outDegree)

  test("candidate pool has the requested size and draws from the vocab") {
    val pool = KeywordSuggest.candidatePool(model, hub, 8)
    assert(pool.size == 8)
    assert(pool.forall(model.keywordIndex.contains))
    assert(pool.distinct.size == 8)
  }

  test("candidate pool is deterministic") {
    assert(KeywordSuggest.candidatePool(model, hub, 8) ==
      KeywordSuggest.candidatePool(model, hub, 8))
  }

  test("candidate pool leans toward the target's own topic") {
    val t = topicOf(hub)
    val pool = KeywordSuggest.candidatePool(model, hub, 6)
    val own = pool.count(_.startsWith(s"kw_t$t"))
    assert(own >= 3, s"pool $pool for topic-$t hub has only $own own-topic keywords")
  }

  test("kSubsets enumerates C(n, k) sets") {
    val pool = Seq("a", "b", "c", "d", "e")
    assert(KeywordSuggest.kSubsets(pool, 2).size == 10)
    assert(KeywordSuggest.kSubsets(pool, 3).size == 10)
  }

  test("suggestMC returns k keywords from the pool with a consistent gamma") {
    val r = KeywordSuggest.suggestMC(model, hub, 2, poolSize = 6, numSamples = 100)
    assert(r.keywords.size == 2)
    val pool = KeywordSuggest.candidatePool(model, hub, 6)
    assert(r.keywords.forall(pool.contains))
    assert(r.gamma.sameElements(model.gammaFor(r.keywords)))
  }

  test("suggestWithIndex returns k keywords and respects keepTop") {
    // a pool of 6 gives C(6, 2) = 15 candidate sets; 8 survive screening
    val r = KeywordSuggest.suggestWithIndex(model, index, hub, 2, poolSize = 6)
    assert(r.keywords.size == 2)
    assert(r.evaluatedSets <= 8)
  }

  test("index-based suggestion quality is close to fresh-MC suggestion") {
    val mc = KeywordSuggest.suggestMC(model, hub, 2, poolSize = 6, numSamples = 300)
    val idx = KeywordSuggest.suggestWithIndex(model, index, hub, 2, poolSize = 6)
    val sMc = KeywordSuggest.evaluate(model, hub, mc.keywords, numSamples = 2000)
    val sIdx = KeywordSuggest.evaluate(model, hub, idx.keywords, numSamples = 2000)
    assert(sIdx >= 0.75 * sMc, s"idx=$sIdx mc=$sMc")
  }

  test("exhaustive optimum is at least as good as pool-restricted search") {
    val best = KeywordSuggest.bestByExhaustiveMC(model, hub, 1, numSamples = 300)
    val mc = KeywordSuggest.suggestMC(model, hub, 1, poolSize = 6, numSamples = 300)
    val sBest = KeywordSuggest.evaluate(model, hub, best.keywords, numSamples = 2000)
    val sMc = KeywordSuggest.evaluate(model, hub, mc.keywords, numSamples = 2000)
    assert(sBest >= 0.9 * sMc, s"best=$sBest mc=$sMc")
    assert(best.evaluatedSets == model.vocab.length)
  }

  test("suggested keywords for a topical hub come from its topic band") {
    val t = topicOf(hub)
    val r = KeywordSuggest.suggestWithIndex(model, index, hub, 2, poolSize = 8)
    val own = r.keywords.count(_.startsWith(s"kw_t$t"))
    assert(own >= 1, s"suggested ${r.keywords} for topic-$t hub")
  }

  test("evaluate is deterministic") {
    val kws = Seq(SocialDataGen.keywordName(0, 0))
    assert(KeywordSuggest.evaluate(model, hub, kws) == KeywordSuggest.evaluate(model, hub, kws))
  }

  test("estimated spread is at least 1 (the target itself)") {
    val r = KeywordSuggest.suggestWithIndex(model, index, hub, 1, poolSize = 4)
    assert(r.estSpread >= 0.0)
    val eval = KeywordSuggest.evaluate(model, hub, r.keywords)
    assert(eval >= 1.0)
  }
}
