package repro.topic

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Bayesian keyword→topic inference and model container invariants. */
class TopicModelSpec extends SparkSpec {

  private lazy val model = TopicModel(
    numTopics = 2,
    vocab = Array("apple", "banana", "carrot"),
    prior = Array(0.4, 0.6),
    phi = Array(Array(0.7, 0.2, 0.1), Array(0.1, 0.3, 0.6)),
    graph = TestGraphs.multi(3, 2, (0, 1, Seq(0.2, 0.4)), (1, 2, Seq(0.3, 0.1))),
  )

  test("gammaFor single keyword matches hand-computed Bayes") {
    // γ_z ∝ prior_z · p(apple|z): (0.4·0.7, 0.6·0.1) = (0.28, 0.06)
    val g = model.gammaFor(Seq("apple"))
    assert(math.abs(g(0) - 0.28 / 0.34) < 1e-12)
    assert(math.abs(g(1) - 0.06 / 0.34) < 1e-12)
  }

  test("gammaFor two keywords multiplies the evidence") {
    // γ_z ∝ prior_z · p(apple|z) · p(banana|z)
    val s0 = 0.4 * 0.7 * 0.2
    val s1 = 0.6 * 0.1 * 0.3
    val g = model.gammaFor(Seq("apple", "banana"))
    assert(math.abs(g(0) - s0 / (s0 + s1)) < 1e-12)
  }

  test("repeated keywords count twice (bag semantics)") {
    val once = model.gammaFor(Seq("carrot"))
    val twice = model.gammaFor(Seq("carrot", "carrot"))
    assert(twice(1) > once(1))
  }

  test("empty keyword set falls back to the prior") {
    assert(model.gammaFor(Nil).toSeq == model.prior.toSeq)
  }

  test("unknown keywords are ignored") {
    assert(model.gammaFor(Seq("durian")).toSeq == model.prior.toSeq)
    val mixed = model.gammaFor(Seq("apple", "durian"))
    assert(mixed.toSeq == model.gammaFor(Seq("apple")).toSeq)
  }

  test("gamma is a distribution") {
    for (kws <- Seq(Seq("apple"), Seq("banana", "carrot"), Seq("apple", "apple", "banana"))) {
      val g = model.gammaFor(kws)
      assert(math.abs(g.sum - 1.0) < 1e-9)
      assert(g.forall(_ >= 0))
    }
  }

  test("more same-topic keywords sharpen gamma") {
    val one = model.gammaFor(Seq("apple"))
    val three = model.gammaFor(Seq("apple", "apple", "apple"))
    assert(three(0) > one(0))
  }

  test("pureTopic is a one-hot vector") {
    assert(TestGraphs.pureTopic(model.numTopics, 1).toSeq == Seq(0.0, 1.0))
  }

  test("keywordIndex maps every vocab entry") {
    assert(model.keywordIndex.size == 3 && model.keywordIndex("banana") == 1)
  }

  test("constructor validates shapes") {
    intercept[IllegalArgumentException] {
      model.copy(prior = Array(1.0)) // wrong length
    }
  }

  test("toDataFrames shapes") {
    val (priorDf, phiDf, edgesDf) = model.toDataFrames(spark)
    assert(priorDf.count() == 2)
    assert(phiDf.count() == 6)
    assert(edgesDf.count() == 2)
  }

  test("oracle: phi DataFrame rows are normalized per topic") {
    val (_, phiDf, _) = model.toDataFrames(spark)
    val sparkDf = phiDf.groupBy("topic").agg(sum("p") as "total")
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT topic, SUM(CAST(p AS DOUBLE)) AS total FROM phi GROUP BY topic",
      "phi" -> phiDf,
    )
    sparkDf.collect().foreach(r => assert(math.abs(r.getDouble(1) - 1.0) < 1e-9))
  }

  test("gammaFor is numerically stable for long keyword lists") {
    val long = List.fill(200)("apple")
    val g = model.gammaFor(long)
    assert(math.abs(g.sum - 1.0) < 1e-9 && g(0) > 0.999)
  }
}
