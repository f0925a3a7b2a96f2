package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable

/** Configuration of the synthetic social network generator.
  *
  * @param numUsers        number of nodes (dense ids `0 until numUsers`)
  * @param avgOutDegree    target mean out-degree (power-law distributed)
  * @param numTopics       Z, number of latent topics in the ground truth
  * @param vocabSize       V, number of distinct keywords
  * @param numItems        number of propagated items (cascades) in the log
  * @param keywordsPerItem keywords sampled per item from `p(w|z)`
  * @param reciprocalProb  probability an edge gets a reverse edge too
  *                        (0 for citation-style graphs, high for friendship)
  * @param baseProb        scale of the dominant-topic activation probability
  * @param seed            RNG seed; generation is deterministic in it
  */
final case class SocialConfig(
    numUsers: Int,
    avgOutDegree: Double,
    numTopics: Int,
    vocabSize: Int,
    numItems: Int,
    keywordsPerItem: Int = 4,
    reciprocalProb: Double = 0.0,
    baseProb: Double = 0.25,
    seed: Long = 42L,
)

/** A generated social network with its ground-truth topic-aware IC model.
  *
  * The DataFrames mirror what OCTOPUS ingests from a real network (ACMCite
  * or QQ): a social graph plus user-generated-content action logs. The
  * ground-truth model (`truthGraph`, `truthPhi`, `truthPrior`) generated
  * the logs and is kept so tests can assert that [[repro.topic.TopicEM]]
  * recovers it — impossible with the paper's proprietary data.
  */
final case class SocialDataset(
    users: DataFrame,   // userId, name, primaryTopic
    edges: DataFrame,   // src, dst, probs: array<double>(Z)  (ground truth)
    items: DataFrame,   // itemId, srcUser, truthTopic, keywords: array<string>
    actions: DataFrame, // itemId, src, dst, success  (one row per activation trial)
    vocab: DataFrame,   // keywordId, keyword, topicBand
    truthGraph: CompactGraph,
    truthPhi: Array[Array[Double]], // Z x V, rows sum to 1
    truthPrior: Array[Double],      // length Z, sums to 1
)

/** Synthetic citation/friendship network generator with topic-dependent
  * influence, replacing the paper's ACMCite and Tencent QQ datasets
  * (substitution documented in DESIGN.md §2).
  *
  * Generation is driver-side with a spec-fixed `java.util.Random`, so it
  * is bit-for-bit deterministic in `(config)`; the driver then
  * parallelizes the result into DataFrames. Community structure: every
  * node has a primary topic and a topical affinity mixture; edges prefer
  * same-community targets and their per-topic activation probabilities
  * `pp^z_{u,v}` scale with both endpoints' affinity for z — exactly the
  * structure the TIC model of Barbieri et al. [2] assumes.
  */
object SocialDataGen {

  /** Keyword surface form: topic band is recoverable from the name, which
    * test assertions and demo output readability rely on.
    */
  def keywordName(band: Int, idx: Int): String = s"kw_t${band}_$idx"

  /** Topic band of keyword id `w`: topic t owns the ids [t·V/Z, (t+1)·V/Z). */
  def band(w: Int, numTopics: Int, vocabSize: Int): Int = w * numTopics / vocabSize

  def generate(spark: SparkSession, cfg: SocialConfig): SocialDataset = {
    require(cfg.numUsers > 1 && cfg.numTopics > 0 && cfg.vocabSize >= cfg.numTopics)
    val rnd = new java.util.Random(cfg.seed)
    val z = cfg.numTopics
    val n = cfg.numUsers
    val v = cfg.vocabSize

    // --- node topical affinities -------------------------------------
    val primary = Array.fill(n)(rnd.nextInt(z))
    val affinity = Array.tabulate(n) { u =>
      val a = Array.fill(z)(0.3 / z)
      a(primary(u)) += 0.7
      a
    }

    // --- edges: power-law out-degree, homophilous targets -------------
    // Pareto(α=2) scaled to the target mean gives a heavy-ish tail
    // without a handful of nodes swallowing the edge budget.
    val edgeSet = mutable.LinkedHashSet.empty[(Int, Int)]
    val byTopic = Array.fill(z)(mutable.ArrayBuffer.empty[Int])
    (0 until n).foreach(u => byTopic(primary(u)) += u)
    val maxDeg = math.max(4, (cfg.avgOutDegree * 8).toInt)
    var u = 0
    while (u < n) {
      val x = cfg.avgOutDegree / 2.0 / math.sqrt(1.0 - rnd.nextDouble()) // Pareto α=2, mean=avg
      val deg = math.min(maxDeg, math.max(1, x.toInt))
      var tries = 0
      var added = 0
      while (added < deg && tries < deg * 10) {
        tries += 1
        val sameCommunity = rnd.nextDouble() < 0.7 && byTopic(primary(u)).length > 1
        val t =
          if (sameCommunity) byTopic(primary(u))(rnd.nextInt(byTopic(primary(u)).length))
          else rnd.nextInt(n)
        if (t != u && !edgeSet.contains((u, t))) {
          edgeSet += ((u, t)); added += 1
          if (rnd.nextDouble() < cfg.reciprocalProb && !edgeSet.contains((t, u))) edgeSet += ((t, u))
        }
      }
      u += 1
    }
    val edgeList = edgeSet.toArray

    // --- ground-truth per-topic edge probabilities --------------------
    val edgeProbs: Array[Array[Double]] = edgeList.map { case (s, d) =>
      Array.tabulate(z) { t =>
        val p = cfg.baseProb * math.sqrt(affinity(s)(t) * affinity(d)(t)) *
          (0.5 + rnd.nextDouble()) // lognormal-ish noise in [0.5, 1.5)
        math.min(0.6, p)
      }
    }

    // --- ground-truth keyword-topic distribution p(w|z) ---------------
    // Zipf weights inside each topic's band plus 5% uniform cross-topic
    // smoothing.
    val bandOf = Array.tabulate(v)(band(_, z, v))
    val names = Array.tabulate(v)(w => keywordName(bandOf(w), w - bandOf(w) * v / z))
    val phi = Array.tabulate(z) { t =>
      val raw = Array.tabulate(v) { w =>
        val inBand = bandOf(w) == t
        val rank = w - t * v / z + 1
        (if (inBand) 0.95 / math.pow(rank, 1.0) else 0.0) + 0.05 / v
      }
      val s = raw.sum
      raw.map(_ / s)
    }
    val prior = Array.fill(z)(1.0 / z)

    // --- graph in compact form (edge ids sorted by (src,dst)) ---------
    val graph = CompactGraph.fromEdgeSeq(n, z,
      edgeList.indices.map(i => (edgeList(i)._1, edgeList(i)._2, edgeProbs(i))))

    // --- items + cascade simulation under the ground truth ------------
    // Each item is a pure-topic cascade from a topically-aligned source;
    // every activation attempt (success or failure) lands in the action
    // log, which is what the EM learner consumes.
    val cumPhi = phi.map(cumulative)
    val items = mutable.ArrayBuffer.empty[(Long, Long, Int, Seq[String])]
    val actions = mutable.ArrayBuffer.empty[(Long, Long, Long, Boolean)]
    var it = 0
    while (it < cfg.numItems) {
      val topic = rnd.nextInt(z)
      val kws = mutable.LinkedHashSet.empty[String]
      var draws = 0
      while (kws.size < cfg.keywordsPerItem && draws < cfg.keywordsPerItem * 8) {
        draws += 1
        kws += names(drawFrom(cumPhi(topic), rnd))
      }
      val src =
        if (byTopic(topic).nonEmpty && rnd.nextDouble() < 0.8)
          byTopic(topic)(rnd.nextInt(byTopic(topic).length))
        else rnd.nextInt(n)
      items += ((it.toLong, src.toLong, topic, kws.toSeq))

      // IC cascade on pure topic `topic`
      val active = mutable.BitSet(src)
      var frontier = List(src)
      while (frontier.nonEmpty) {
        val next = mutable.ListBuffer.empty[Int]
        frontier.foreach { a =>
          var e = graph.outOffsets(a)
          while (e < graph.outOffsets(a + 1)) {
            val b = graph.outDst(e)
            if (!active.contains(b)) {
              val ok = rnd.nextDouble() < graph.topicProb(e, topic)
              actions += ((it.toLong, a.toLong, b.toLong, ok))
              if (ok) { active += b; next += b }
            }
            e += 1
          }
        }
        frontier = next.toList
      }
      it += 1
    }

    import spark.implicits._
    val usersDf = (0 until n).map(i => (i.toLong, s"user_$i", primary(i))).toDF("userId", "name", "primaryTopic")
    val edgesDf = edgeList.indices
      .map(i => (edgeList(i)._1.toLong, edgeList(i)._2.toLong, edgeProbs(i).toSeq))
      .toDF("src", "dst", "probs")
    val itemsDf = items.toSeq.toDF("itemId", "srcUser", "truthTopic", "keywords")
    val actionsDf = actions.toSeq.toDF("itemId", "src", "dst", "success")
    val vocabDf = (0 until v)
      .map(w => (w.toLong, names(w), bandOf(w)))
      .toDF("keywordId", "keyword", "topicBand")

    SocialDataset(usersDf, edgesDf, itemsDf, actionsDf, vocabDf, graph, phi, prior)
  }

  private def cumulative(p: Array[Double]): Array[Double] = {
    val c = new Array[Double](p.length)
    var acc = 0.0
    var i = 0
    while (i < p.length) { acc += p(i); c(i) = acc; i += 1 }
    c
  }

  private def drawFrom(cum: Array[Double], rnd: java.util.Random): Int = {
    val x = rnd.nextDouble() * cum(cum.length - 1)
    val i = java.util.Arrays.binarySearch(cum, x)
    val idx = if (i >= 0) i else -i - 1
    math.min(idx, cum.length - 1)
  }
}
