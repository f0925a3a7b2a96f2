package repro.bench

import repro.exp.Experiments

/** T1 — Scenario 1: KIM seeds vs individual-influence ranking.
  * Paper claim: IM objective "would find users with non-overlapping
  * influence ... provides diverse results", i.e. low seed overlap and a
  * combined spread at least matching the individual ranking.
  */
class T1DiversityBench extends BenchBase {

  test("T1: KIM finds diverse seeds with higher combined spread") {
    // Dense reciprocal network (the QQ stand-in): individual top-k picks
    // redundantly from the same saturated communities, greedy IM doesn't.
    val (table, rows) = Experiments.t1(ctx("T1"))
    printTable(table)

    val avgOverlap = rows.map(_.overlap).sum / rows.size
    val avgLift = rows.map(r => r.spreadKim / math.max(r.spreadTop, 1e-9)).sum / rows.size
    println(f"T1 summary: avg overlap=$avgOverlap%.2f avg lift=$avgLift%.2fx")

    assert(rows.nonEmpty)
    // shape: the greedy IM set is never dominated, and on average wins
    rows.foreach(r => assert(r.spreadKim >= 0.95 * r.spreadTop,
      s"query ${r.query}: kim ${r.spreadKim} < top ${r.spreadTop}"))
    assert(avgLift >= 1.0)
    // shape: IM seeds are diverse — far from the individual ranking,
    // which keeps picking redundant hubs out of the same community
    assert(avgOverlap <= 0.6, s"avg overlap $avgOverlap")
  }
}
