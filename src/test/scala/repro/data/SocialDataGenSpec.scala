package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Generator invariants: schema, determinism, skew/homophily shape, and
  * consistency between the DataFrames and the ground-truth model.
  */
class SocialDataGenSpec extends SparkSpec {

  private lazy val cfg =
    SocialConfig(numUsers = 120, avgOutDegree = 5, numTopics = 3, vocabSize = 30,
      numItems = 200, seed = 9L)
  private lazy val ds = SocialDataGen.generate(spark, cfg)

  test("users: dense ids 0..n-1 with names") {
    val ids = ds.users.select("userId").collect().map(_.getLong(0)).sorted
    assert(ids.sameElements(0L until cfg.numUsers.toLong))
    assert(ds.users.select("name").collect().forall(_.getString(0).startsWith("user_")))
  }

  test("generation is deterministic in the config") {
    val ds2 = SocialDataGen.generate(spark, cfg)
    assert(ds.edges.collect().toSeq == ds2.edges.collect().toSeq)
    assert(ds.items.collect().toSeq == ds2.items.collect().toSeq)
    assert(ds.actions.collect().toSeq == ds2.actions.collect().toSeq)
  }

  test("a different seed changes the graph") {
    val ds2 = SocialDataGen.generate(spark, cfg.copy(seed = 10L))
    assert(ds.edges.collect().toSeq != ds2.edges.collect().toSeq)
  }

  test("edges: endpoints valid, no self loops, no duplicates") {
    val rows = ds.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(rows.forall { case (s, d) => s != d && s >= 0 && d >= 0 && s < cfg.numUsers && d < cfg.numUsers })
    assert(rows.distinct.length == rows.length)
  }

  test("edges: probability vectors have length Z and live in (0, 0.6]") {
    val probs = ds.edges.select("probs").collect().map(_.getSeq[Double](0))
    assert(probs.forall(_.length == cfg.numTopics))
    assert(probs.forall(_.forall(p => p > 0 && p <= 0.6)))
  }

  test("truthGraph agrees with the edges DataFrame") {
    val g2 = TestGraphs.fromRows(ds.edges, cfg.numUsers, cfg.numTopics)
    val g1 = ds.truthGraph
    assert(g1.outOffsets.sameElements(g2.outOffsets))
    assert(g1.outDst.sameElements(g2.outDst))
    assert(g1.outProbs.sameElements(g2.outProbs))
  }

  test("truthPhi rows are distributions") {
    ds.truthPhi.foreach { row =>
      assert(math.abs(row.sum - 1.0) < 1e-9)
      assert(row.forall(_ >= 0))
    }
  }

  test("truthPhi concentrates each topic's mass on its own keyword band") {
    val v = cfg.vocabSize; val z = cfg.numTopics
    for (t <- 0 until z) {
      val inBand = (0 until v).filter(w => w * z / v == t).map(ds.truthPhi(t)).sum
      assert(inBand > 0.8, s"topic $t in-band mass $inBand")
    }
  }

  test("truthPrior is a distribution") {
    assert(math.abs(ds.truthPrior.sum - 1.0) < 1e-9)
  }

  test("vocab: size, banding, and recoverable names") {
    val rows = ds.vocab.collect()
    assert(rows.length == cfg.vocabSize)
    rows.foreach { r =>
      val band = r.getInt(2)
      assert(r.getString(1) == SocialDataGen.keywordName(band, r.getLong(0).toInt - band * cfg.vocabSize / cfg.numTopics))
    }
  }

  test("items: keywords are non-empty and drawn from the vocabulary") {
    val vocab = ds.vocab.select("keyword").collect().map(_.getString(0)).toSet
    val rows = ds.items.select("keywords").collect().map(_.getSeq[String](0))
    assert(rows.forall(_.nonEmpty))
    assert(rows.forall(_.forall(vocab.contains)))
  }

  test("items: keywords are topically aligned with the item's truth topic") {
    val rows = ds.items.select("truthTopic", "keywords").collect()
    val aligned = rows.map { r =>
      val t = r.getInt(0)
      val kws = r.getSeq[String](1)
      kws.count(_.startsWith(s"kw_t$t")) .toDouble / kws.size
    }
    assert(aligned.sum / aligned.length > 0.7)
  }

  test("items: every topic occurs") {
    val topics = ds.items.select("truthTopic").distinct().collect().map(_.getInt(0)).toSet
    assert(topics == (0 until cfg.numTopics).toSet)
  }

  test("actions: every (src, dst) is an existing edge") {
    val edgeSet = ds.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val pairs = ds.actions.select("src", "dst").distinct().collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(pairs.forall(edgeSet.contains))
  }

  test("actions: every successful activation traces back to the item source") {
    // For each item, activated nodes (success dsts + source) must be
    // connected: every success's src must itself be activated.
    val byItem = ds.actions.collect().groupBy(_.getLong(0))
    val srcOf = ds.items.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    byItem.foreach { case (item, rows) =>
      val activated = scala.collection.mutable.Set(srcOf(item))
      rows.filter(_.getBoolean(3)).foreach(r => activated += r.getLong(2))
      rows.foreach(r => assert(activated.contains(r.getLong(1)),
        s"item $item: trial from non-activated node ${r.getLong(1)}"))
    }
  }

  test("actions: success rate is plausible given edge probabilities") {
    val rate = ds.actions.agg(avg(col("success").cast("double"))).collect()(0).getDouble(0)
    assert(rate > 0.005 && rate < 0.5, s"success rate $rate")
  }

  test("degree skew: max out-degree well above the mean") {
    val g = ds.truthGraph
    val degs = (0 until g.n).map(g.outDegree)
    assert(degs.max >= 2 * degs.sum / degs.length)
  }

  test("homophily: same-community edges dominate") {
    val prim = ds.users.collect().map(r => r.getLong(0) -> r.getInt(2)).toMap
    val same = ds.edges.collect().count(r => prim(r.getLong(0)) == prim(r.getLong(1)))
    assert(same.toDouble / ds.truthGraph.numEdges > 0.5)
  }

  test("citeLite is mostly non-reciprocal, friendLite mostly reciprocal") {
    val cite = repro.SynthData.citeLite(spark, 0.002, seed = 3)
    val friend = repro.SynthData.friendLite(spark, 0.002, seed = 3)
    def recipRate(ds: SocialDataset): Double = {
      val es = ds.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
      val set = es.toSet
      es.count(e => set.contains((e._2, e._1))).toDouble / es.length
    }
    assert(recipRate(cite) < 0.3)
    assert(recipRate(friend) > 0.5)
  }

  test("scale factor scales user count") {
    val small = repro.SynthData.citeLite(spark, 0.002, seed = 3)
    val large = repro.SynthData.citeLite(spark, 0.004, seed = 3)
    val ns = small.users.count(); val nl = large.users.count()
    assert(nl >= 2 * ns - 2 && nl <= 2 * ns + 2)
  }

  test("oracle: out-degree distribution matches DuckDB") {
    val sparkDf = ds.edges.groupBy("src").agg(count(lit(1)) as "deg")
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT src, COUNT(*) AS deg FROM e GROUP BY src",
      "e" -> ds.edges.select("src", "dst"),
    )
  }

  test("oracle: per-item trial and success counts match DuckDB") {
    val sparkDf = ds.actions
      .groupBy("itemId")
      .agg(count(lit(1)) as "trials",
           sum(when(col("success"), 1).otherwise(0)) as "successes")
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT itemId, COUNT(*) AS trials, " +
        "SUM(CASE WHEN success = 'true' THEN 1 ELSE 0 END) AS successes " +
        "FROM a GROUP BY itemId",
      "a" -> ds.actions,
    )
  }
}
