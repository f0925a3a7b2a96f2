package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.SocialDataset
import repro.topic.{TopicEM, TopicModel}

/** The OCTOPUS system facade — the three analysis services the demo
  * exposes (paper §II-A, Figure 2), wired over one learned topic-aware
  * influence model and the offline indexes:
  *
  *   - [[influentialUsers]]   — Scenario 1, keyword-based influential
  *     user discovery (best-effort online KIM);
  *   - [[suggestKeywords]]    — Scenario 2, personalized influential
  *     keywords suggestion (influencer index);
  *   - [[influencePaths]]     — Scenario 3, interactive influential path
  *     exploration (MIA trees, outward and inward).
  *
  * Construction mirrors the paper's offline/online split: EM learning
  * groups the action log with one Spark query and iterates on the
  * driver, the influencer-index build walks its samples in parallel
  * chunks and the bound precomputation is a single loop, all run once per
  * system; the service methods answer online from in-memory structures.
  * Callers choose only the index's and KIM's sample counts (`rrSamples`,
  * `kimConfig.numSamples`). The services reject an out-of-range user, k
  * or θ (NaN included), and a keyword list in which no keyword is known,
  * with an `IllegalArgumentException`; so does the constructor for a
  * sample count below 1.
  *
  * @param topicSamples unused; kept so existing callers of this
  *                     constructor still compile
  */
final class Octopus(
    val spark: SparkSession,
    val model: TopicModel,
    val userNames: Array[String],
    rrSamples: Int,
    topicSamples: Int,
    kimConfig: BestEffortKIM.Config,
) {
  require(rrSamples >= 1, s"rrSamples must be >= 1, got $rrSamples")
  require(kimConfig.numSamples >= 1, s"numSamples must be >= 1, got ${kimConfig.numSamples}")

  /** Offline precomputed per-user spread upper bounds. */
  lazy val precomp: Array[Double] = Bounds.precomputedUB(model.graph)

  /** Offline influencer index. */
  lazy val rrIndex: RRIndex.Index = RRIndex.build(model.graph, rrSamples)

  private lazy val nameIndex: Map[String, Int] = userNames.zipWithIndex.toMap

  /** Resolve a user by display name (the UI's auto-completion hits this). */
  def userIdOf(name: String): Option[Int] = nameIndex.get(name)

  private def requireUser(u: Int): Unit =
    require(u >= 0 && u < model.graph.n, s"user $u is not in [0, ${model.graph.n})")

  /** An empty list means the topic prior; otherwise at least one keyword
    * must be in the vocabulary, or γ would silently be the prior.
    */
  private def requireKnown(keywords: Seq[String]): Unit =
    require(keywords.isEmpty || keywords.exists(model.keywordIndex.contains),
      s"no known keyword in the query: ${keywords.mkString(", ")}")

  /** Scenario 1: seed users with maximum influence spread on the topic
    * the keywords describe. Returns (named seeds, result, derived γ).
    */
  def influentialUsers(
      keywords: Seq[String],
      k: Int,
  ): (Seq[String], GreedyIM.IMResult, Array[Double]) = {
    require(k >= 1 && k <= model.graph.n, s"k must be in [1, ${model.graph.n}], got $k")
    requireKnown(keywords)
    val gamma = model.gammaFor(keywords)
    val res = BestEffortKIM.queryGamma(model.graph, precomp, gamma, k, kimConfig)
    (res.seeds.map(userNames), res, gamma)
  }

  /** Scenario 2: the k keywords maximizing the target user's influence. */
  def suggestKeywords(target: Int, k: Int, poolSize: Int = 12): KeywordSuggest.SuggestResult = {
    requireUser(target)
    val pool = math.min(poolSize, model.vocab.length)
    require(k >= 1 && k <= pool, s"k must be in [1, $pool] (the keyword pool size), got $k")
    KeywordSuggest.suggestWithIndex(model, rrIndex, target, k, poolSize)
  }

  /** Scenario 3: MIA influence paths of a user, on the topic described by
    * `keywords` (empty ⇒ topic prior). `outward=false` gives "who
    * influences the target" (the Archana Ganapathi direction in the demo).
    */
  def influencePaths(
      target: Int,
      keywords: Seq[String],
      theta: Double,
      outward: Boolean = true,
  ): MIA.MiaTree = {
    requireUser(target)
    require(theta > 0.0 && theta <= 1.0, s"theta must be in (0, 1], got $theta")
    requireKnown(keywords)
    MIA.treeUnder(model.graph, model.gammaFor(keywords), target, theta, outward)
  }

  /** Scenario 3 continued: the DataFrame the d3js layer would render. */
  def influencePathsDf(
      target: Int,
      keywords: Seq[String],
      theta: Double,
      outward: Boolean = true,
  ): DataFrame =
    MIA.toDataFrame(spark, influencePaths(target, keywords, theta, outward), userNames)
}

object Octopus {

  /** Build the system over a dataset: learn the model by EM from the
    * action logs (`learnEM = true`, the production path) or adopt the
    * generator's ground-truth model (fast path for engine-only tests).
    */
  def build(
      spark: SparkSession,
      ds: SocialDataset,
      learnEM: Boolean = false,
      numTopics: Int = 4,
      emIterations: Int = 8,
      rrSamples: Int = 300,
      kimConfig: BestEffortKIM.Config = BestEffortKIM.Config(),
  ): Octopus = {
    val model =
      if (learnEM)
        TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, numTopics, emIterations).model
      else TopicEM.fromTruth(ds)
    val names = ds.users
      .select("userId", "name")
      .collect()
      .sortBy(_.getLong(0))
      .map(_.getString(1))
    new Octopus(spark, model, names, rrSamples, topicSamples = 0, kimConfig)
  }
}
