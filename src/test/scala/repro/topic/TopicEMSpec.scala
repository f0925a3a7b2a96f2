package repro.topic

import java.lang.Double.doubleToLongBits

import repro.{SparkSpec, SynthData}
import repro.data.{SocialConfig, SocialDataGen}

/** EM learning: probabilistic invariants, the likelihood-ascent
  * guarantee, and recovery of the generating model on synthetic logs.
  */
class TopicEMSpec extends SparkSpec {

  private lazy val cfg =
    SocialConfig(numUsers = 60, avgOutDegree = 4, numTopics = 3, vocabSize = 30,
      numItems = 250, seed = 5L)
  private lazy val ds = SocialDataGen.generate(spark, cfg)
  private lazy val learned =
    TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, cfg.numTopics, iterations = 6)

  /** Raw bits of the likelihood trace, prior, φ (row-major) and the
    * learned per-topic edge probabilities, in that order.
    */
  private def bits(r: TopicEM.Result): Seq[Seq[Long]] =
    (Seq(r.logLikelihood, r.model.prior.toSeq) ++ r.model.phi.map(_.toSeq) :+ r.model.graph.outProbs.toSeq)
      .map(_.map(doubleToLongBits))

  private def sha256(r: TopicEM.Result): String = {
    val longs = bits(r).flatten
    val buf = java.nio.ByteBuffer.allocate(8 * longs.size)
    longs.foreach(buf.putLong)
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array()).map("%02x".format(_)).mkString
  }

  test("log-likelihood is non-decreasing (EM guarantee)") {
    val ll = learned.logLikelihood
    assert(ll.size == 6)
    ll.sliding(2).foreach(p => assert(p(1) >= p(0) - 1e-6, s"descent: $ll"))
  }

  test("phi rows are probability distributions") {
    learned.model.phi.foreach { row =>
      assert(math.abs(row.sum - 1.0) < 1e-9)
      assert(row.forall(_ >= 0))
    }
  }

  test("prior is a probability distribution") {
    assert(math.abs(learned.model.prior.sum - 1.0) < 1e-9)
    assert(learned.model.prior.forall(_ > 0))
  }

  test("learned edge probabilities are clamped to (0, 1)") {
    val g = learned.model.graph
    for (e <- 0 until g.numEdges; z <- 0 until g.numTopics) {
      val p = g.topicProb(e, z)
      assert(p >= 1e-4 && p <= 0.99)
    }
  }

  test("learned graph preserves the input topology and edge order") {
    val gt = ds.truthGraph
    val gl = learned.model.graph
    assert(gl.n == gt.n && gl.numEdges == gt.numEdges)
    assert(gl.outOffsets.sameElements(gt.outOffsets))
    assert(gl.outDst.sameElements(gt.outDst))
  }

  test("vocab is carried over in keywordId order") {
    val expected = ds.vocab.select("keywordId", "keyword").collect()
      .sortBy(_.getLong(0)).map(_.getString(1))
    assert(learned.model.vocab.sameElements(expected))
  }

  test("keyword-topic structure is recovered above chance") {
    val z = cfg.numTopics
    val v = cfg.vocabSize
    val phi = learned.model.phi
    val bandOf = (w: Int) => w * z / v
    // learned topic -> true band with most phi mass
    val mapping = (0 until z).map { lt =>
      (0 until z).maxBy(tt => (0 until v).filter(bandOf(_) == tt).map(phi(lt)).sum)
    }
    val aligned = (0 until v).count { w =>
      mapping((0 until z).maxBy(t => phi(t)(w))) == bandOf(w)
    }
    val acc = aligned.toDouble / v
    assert(acc > 0.5, s"alignment $acc barely above chance ${1.0 / z}")
  }

  test("learning is deterministic in the seed") {
    val again =
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, cfg.numTopics, iterations = 2)
    val first =
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, cfg.numTopics, iterations = 2)
    assert(bits(again) == bits(first))
  }

  test("a different init seed changes the trajectory") {
    val other =
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, cfg.numTopics,
        iterations = 2, seed = 99L)
    assert(other.logLikelihood != learned.logLikelihood.take(2))
  }

  test("fromTruth wraps the generator's ground truth unchanged") {
    val m = TopicEM.fromTruth(ds)
    assert(m.prior.sameElements(ds.truthPrior))
    assert(m.phi.zip(ds.truthPhi).forall { case (a, b) => a.sameElements(b) })
    assert(m.graph eq ds.truthGraph)
    assert(m.vocab.length == cfg.vocabSize)
  }

  test("edges with observed successes learn higher probabilities than unobserved ones") {
    val gl = learned.model.graph
    val trialsByEdge = ds.actions.collect().groupBy(r => (r.getLong(1), r.getLong(2)))
    val succEdges = trialsByEdge.collect { case ((s, d), rows) if rows.count(_.getBoolean(3)) >= 2 => (s, d) }
    val noTrialEdges = ds.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
      .filterNot(trialsByEdge.contains)
    if (succEdges.nonEmpty && noTrialEdges.nonEmpty) {
      def maxP(sd: (Long, Long)): Double = {
        val s = sd._1.toInt
        val e = (gl.outOffsets(s) until gl.outOffsets(s + 1)).find(i => gl.outDst(i) == sd._2.toInt).get
        (0 until gl.numTopics).map(gl.topicProb(e, _)).max
      }
      val avgSucc = succEdges.map(maxP).sum / succEdges.size
      val avgNone = noTrialEdges.map(maxP).sum / noTrialEdges.length
      assert(avgSucc > avgNone, s"succ=$avgSucc none=$avgNone")
    }
  }

  test("learned bits match their recorded values") {
    // This suite's config, then T6's: CiteLite SF 0.01, Z = 4, 40 keywords.
    assert(sha256(learned) == "7871d1e06ea90570ce99727d3553d43c4cbc0951b76ae7136f742cea4473fc6c")
    val t6 = SynthData.citeLite(spark, 0.01, numTopics = 4, vocabSize = 40)
    assert(sha256(TopicEM.learn(spark, t6.edges, t6.items, t6.actions, t6.vocab, 4, iterations = 6)) ==
      "27a12a9224ac7966f41056ac22da911e113ec7524b8d65ef9b6e62fc45448f5c")
  }

  test("the learned model does not depend on spark.sql.shuffle.partitions") {
    val d = SynthData.citeLite(spark, 0.02)
    // Without coalescing, adaptive execution keeps all the partitions
    // instead of merging this small log into one.
    def learnAt(partitions: Int, coalesce: Boolean = true): TopicEM.Result = {
      val keys = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
      val old = keys.map(spark.conf.get)
      spark.conf.set(keys(0), partitions.toString)
      spark.conf.set(keys(1), coalesce.toString)
      try TopicEM.learn(spark, d.edges, d.items, d.actions, d.vocab, 4, iterations = 2)
      finally keys.zip(old).foreach { case (k, v) => spark.conf.set(k, v) }
    }
    val atOne = bits(learnAt(1))
    assert(atOne == bits(learnAt(16)))
    assert(atOne == bits(learnAt(16, coalesce = false)))
  }

  test("learn rejects no topics and no iterations") {
    intercept[IllegalArgumentException] {
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, numTopics = 0)
    }
    intercept[IllegalArgumentException] {
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, cfg.numTopics, iterations = 0)
    }
  }
}
