package repro.topic

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.CompactGraph

/** EM learner for the topic-aware IC (TIC) model, following
  * Barbieri, Bonchi, Manco (ICDM 2012) as cited by OCTOPUS §II-B.
  *
  * Input is exactly what OCTOPUS ingests: graph topology + action logs
  * (items with keyword bags; per-edge activation trials with outcomes).
  * Latent variable: each item's topic. Learned parameters: topic prior
  * p(z), keyword distributions p(w|z), per-edge per-topic activation
  * probabilities pp^z_{u,v}.
  *
  * One Spark query groups the logs into one record per item, collected
  * to the driver and sorted by item id. Each iteration folds every item's
  * topic responsibilities (E-step) into one array of sufficient statistics,
  * in that order, and re-estimates the parameters from it (M-step).
  */
object TopicEM {

  /** Learned model plus the per-iteration observed-data log-likelihood
    * (tests assert it is non-decreasing, the EM guarantee).
    */
  final case class Result(model: TopicModel, logLikelihood: Seq[Double])

  /** Dirichlet/Beta smoothing constants: `betaPhi` for p(w|z), and a
    * Beta(`aEdge`, `bEdge`) prior for every pp^z_e (its mean, 0.1, is
    * also the value edges with no trials fall back to).
    */
  private val betaPhi = 0.05
  private val aEdge = 0.2
  private val bEdge = 1.8
  private val minP = 1e-4
  private val maxP = 0.99

  /** Run EM.
    *
    * Statistics are summed in item-id order, so the learned bits do not
    * depend on how Spark partitions the logs.
    *
    * @param edges    topology with `src`, `dst` (extra columns ignored)
    * @param items    `itemId`, `keywords: array<string>`
    * @param actions  `itemId`, `src`, `dst`, `success`
    * @param vocabDf  `keywordId`, `keyword`
    */
  def learn(
      spark: SparkSession,
      edges: DataFrame,
      items: DataFrame,
      actions: DataFrame,
      vocabDf: DataFrame,
      numTopics: Int,
      iterations: Int = 10,
      seed: Long = 7L,
  ): Result = {
    require(numTopics >= 1, s"numTopics must be >= 1, got $numTopics")
    require(iterations >= 1, s"iterations must be >= 1, got $iterations")
    import spark.implicits._
    val z = numTopics

    val vocab: Array[String] =
      vocabDf.select("keywordId", "keyword").collect().sortBy(_.getLong(0)).map(_.getString(1))
    val v = vocab.length

    // Deterministic (src,dst)-sorted edge ids, same order as CompactGraph.
    val edgePairs: Array[(Long, Long)] =
      edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(identity)
    val m = edgePairs.length
    val numNodes = (edgePairs.iterator.flatMap(p => Iterator(p._1, p._2)).max + 1).toInt
    val edgesIdx = edgePairs.zipWithIndex.map { case ((s, d), e) => (s, d, e) }.toSeq
      .toDF("src", "dst", "edgeId")

    // One record per item, in item-id order: (keyword ids, counts, tried
    // edge ids, outcomes). Items with no known keyword and no trial follow the prior.
    // The driver sorts them: `orderBy` would add a sampling job and a shuffle.
    val kwLog = items
      .select($"itemId", explode($"keywords") as "keyword")
      .join(vocabDf.select($"keyword", $"keywordId".cast("int") as "w"), Seq("keyword"))
      .groupBy($"itemId")
      .agg(sort_array(collect_list($"w")) as "kws")
    val trialLog = actions
      .join(edgesIdx, Seq("src", "dst"))
      .groupBy($"itemId")
      .agg(sort_array(collect_list(struct($"edgeId", $"success"))) as "trials")
    val logs = items.select($"itemId")
      .join(kwLog, Seq("itemId"), "left")
      .join(trialLog, Seq("itemId"), "left")
      .rdd.map { r =>
        val ws = Option(r.getSeq[Int](1)).getOrElse(Nil)
        val trials = Option(r.getSeq[Row](2)).getOrElse(Nil).map(t => (t.getInt(0), t.getBoolean(1))).toArray
        val kw = ws.distinct.toArray
        (r.getLong(0), (kw, kw.map(w => ws.count(_ == w).toDouble), trials.map(_._1), trials.map(_._2)))
      }
      .collect().sortBy(_._1).map(_._2)

    // ---- init (seeded) -------------------------------------------------
    val rnd = new java.util.Random(seed)
    var prior = Array.fill(z)(1.0 / z)
    var phi = Array.fill(z)(normalized(Array.fill(v)(1.0 + rnd.nextDouble())))
    var pp = Array.fill(z * m)(0.05 + 0.1 * rnd.nextDouble()) // pp^t_e at t*m + e

    // The E-step statistics, topic-major: [log-lik | prior mass (Z) |
    // keyword mass (Z·V) | success mass (Z·m) | trial mass (Z·m)].
    val kwAt = 1 + z
    val succAt = kwAt + z * v
    val totAt = succAt + z * m

    val logLiks = (0 until iterations).map { _ =>
      val (logPrior, logPhi, logP, log1mP) = (prior.map(math.log),
        phi.flatMap(_.map(p => math.log(math.max(p, 1e-12)))), pp.map(math.log), pp.map(p => math.log1p(-p)))
      // ---- E-step ------------------------------------------------------
      val st = new Array[Double](totAt + z * m)
      logs.foreach { case (kw, cnt, edge, ok) =>
        val scores = Array.tabulate(z) { t =>
          val kwSum = kw.indices.foldLeft(0.0)((a, i) => a + cnt(i) * logPhi(t * v + kw(i)))
          val trSum = edge.indices.foldLeft(0.0)((a, i) => a + (if (ok(i)) logP else log1mP)(t * m + edge(i)))
          logPrior(t) + (kwSum + trSum)
        }
        val mx = scores.max
        val exps = scores.map(x => math.exp(x - mx))
        val s = exps.sum
        st(0) += mx + math.log(s)
        for (t <- 0 until z) {
          val r = exps(t) / s
          st(1 + t) += r
          for (i <- kw.indices) st(kwAt + t * v + kw(i)) += r * cnt(i)
          for (i <- edge.indices) { val k = t * m + edge(i); if (ok(i)) st(succAt + k) += r; st(totAt + k) += r }
        }
      }

      // ---- M-step ------------------------------------------------------
      val priorSum = st.slice(1, kwAt).sum
      prior = Array.tabulate(z)(t => math.max(st(1 + t) / priorSum, 1e-6))
      phi = Array.tabulate(z)(t => normalized(Array.tabulate(v)(w => betaPhi + st(kwAt + t * v + w))))
      // With no trials this is exactly aEdge / (aEdge + bEdge).
      pp = Array.tabulate(z * m) { k =>
        math.min(maxP, math.max(minP, (st(succAt + k) + aEdge) / (st(totAt + k) + aEdge + bEdge)))
      }
      st(0) // the E-step's log-likelihood
    }

    val graph = CompactGraph.fromEdgeSeq(numNodes, z, edgePairs.indices.map { e =>
      (edgePairs(e)._1.toInt, edgePairs(e)._2.toInt, Array.tabulate(z)(t => pp(t * m + e)))
    })
    Result(TopicModel(z, vocab, prior, phi, graph), logLiks)
  }

  private def normalized(a: Array[Double]): Array[Double] = { val s = a.sum; a.map(_ / s) }

  /** Assemble a TopicModel directly from ground-truth generator output —
    * used by tests/benches that exercise the influence engine without
    * paying for EM, and by the oracle comparisons in T6.
    */
  def fromTruth(ds: repro.data.SocialDataset): TopicModel = {
    val vocab = ds.vocab.select("keywordId", "keyword").collect()
      .sortBy(_.getLong(0)).map(_.getString(1))
    TopicModel(ds.truthPrior.length, vocab, ds.truthPrior, ds.truthPhi, ds.truthGraph)
  }
}
