package repro.bench

import repro.exp.Experiments

/** T3 — Scenario 2 quality: suggested keyword sets vs the exhaustive
  * optimum over the whole vocabulary (feasible at the small scale), plus
  * the topic-coherence property the paper highlights ("make sure that
  * the suggested keywords are consistent in topics").
  */
class T3SuggestQualityBench extends BenchBase {

  test("T3: suggestions reach ≥75% of the exhaustive optimum's spread") {
    val (table, rows) = Experiments.t3(ctx("T3"))
    printTable(table)

    val avgRatio = rows.map(_.ratio).sum / rows.size
    println(f"T3 summary: avg spread ratio vs exhaustive optimum $avgRatio%.2f, " +
      s"coherent ${rows.count(_.coherent)}/${rows.size}")

    rows.foreach(r => assert(r.ratio >= 0.5, s"target ${r.target} k=${r.k}: ratio ${r.ratio}"))
    assert(avgRatio >= 0.75, s"avg ratio $avgRatio")
    // topic coherence holds for the clear majority of suggestions
    assert(rows.count(_.coherent) * 2 >= rows.size)
  }
}
