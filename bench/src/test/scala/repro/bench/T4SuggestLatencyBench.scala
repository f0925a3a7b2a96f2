package repro.bench

import repro.exp.Experiments

/** T4 — Scenario 2 efficiency (§II-D): the influencer index "avoids
  * online sampling from scratch"; with pruning and delayed
  * materialization it must beat fresh-Monte-Carlo enumeration by a wide
  * margin at comparable quality.
  */
class T4SuggestLatencyBench extends BenchBase {

  test("T4: influencer index beats fresh-MC enumeration") {
    val (table, rows, buildMs) = Experiments.t4(ctx("T4"))
    printTable(table)
    println(s"(one-time influencer index build: ${buildMs} ms, amortized over all queries)")

    val avgSpeedup = rows.map(_.speedup).sum / rows.size
    val avgQuality = rows.map(_.agree).sum / rows.size
    println(f"T4 summary: avg speedup $avgSpeedup%.1fx, avg quality vs MC $avgQuality%.2f")

    assert(avgSpeedup >= 2.0, s"avg speedup only $avgSpeedup")
    assert(avgQuality >= 0.7, s"avg quality only $avgQuality")
  }
}
