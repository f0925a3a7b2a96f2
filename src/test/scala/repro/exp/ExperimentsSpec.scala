package repro.exp

import repro.SparkSpec

/** Smoke + shape tests of the table harnesses, at their own parameters
  * on a tiny network; the bench suites run them on the networks recorded
  * in EXPERIMENTS.md.
  */
class ExperimentsSpec extends SparkSpec {

  private lazy val c = Experiments.ctx(spark, Experiments.Network(0.004, vocabSize = 40))

  test("t1 produces one row per query and KIM is never much worse") {
    val (table, rows) = Experiments.t1(c)
    assert(rows.size == 4 && table.rows.size == 4)
    val avgKim = rows.map(_.spreadKim).sum / rows.size
    val avgTop = rows.map(_.spreadTop).sum / rows.size
    assert(avgKim >= 0.9 * avgTop, s"kim=$avgKim top=$avgTop")
  }

  test("t2 shows the pruning order: best-effort ≤ celf ≤ naive evaluations") {
    val (_, rows) = Experiments.t2(c)
    val grouped = rows.groupBy(r => (r.query, r.k))
    grouped.foreach { case (key, rs) =>
      val byMethod = rs.map(r => r.method -> r).toMap
      assert(byMethod("best-effort").evals <= byMethod("celf").evals, s"$key")
      assert(byMethod("celf").evals <= byMethod("naive-greedy").evals, s"$key")
      // equal-quality check across methods
      val naive = byMethod("naive-greedy").spread
      assert(byMethod("best-effort").spread >= 0.9 * naive, s"$key")
    }
  }

  test("t2 rows cover every (query, k, method) combination") {
    val (_, rows) = Experiments.t2(c)
    assert(rows.size == 2 * 2 * 3)
    assert(rows.map(_.method).distinct.size == 3)
  }

  test("t3 achieves a reasonable ratio vs the exhaustive optimum") {
    val (_, rows) = Experiments.t3(c)
    rows.foreach(r => assert(r.ratio >= 0.5, s"ratio ${r.ratio}"))
  }

  test("t4 reports speedups and sane quality") {
    val (table, rows, buildMs) = Experiments.t4(c)
    assert(rows.size == 4 && buildMs >= 0)
    rows.foreach(r => assert(r.agree > 0.3, s"quality ${r.agree}"))
    assert(table.rows.nonEmpty)
  }

  test("t5 tree size shrinks as theta grows and coverage is bounded") {
    val (_, rows) = Experiments.t5(c)
    assert(rows.map(_.size).sliding(2).forall(p => p(1) >= p(0)))
    rows.foreach(r => assert(r.treeSpread <= r.mcSpread * 1.2 + 1.0))
  }

  test("t6 recovers the generating model above chance with ascending likelihood") {
    val (_, r) = Experiments.t6(c)
    assert(r.logLik.sliding(2).forall(p => p(1) >= p(0) - 1e-6))
    assert(r.keywordAlignment > 1.0 / c.model.numTopics)
    assert(r.mapping.sorted == (0 until c.model.numTopics))
  }

  test("tables render as aligned markdown") {
    val t = Experiments.Table("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val s = t.render
    assert(s.contains("### demo") && s.contains("| a ") && s.linesIterator.size == 5)
  }

  test("keywordQueries yields the requested number of queries") {
    assert(Experiments.keywordQueries(c.model, 3).size == 3)
    assert(Experiments.keywordQueries(c.model, 5).size == 5)
  }
}
