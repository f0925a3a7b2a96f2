package repro.bench

import repro.exp.Experiments

/** T5 — Scenario 3: interactive influential-path exploration. MIA trees
  * must be computable at interactive latency, shrink with θ, and (for
  * small θ) capture most of the Monte-Carlo spread.
  */
class T5MiaBench extends BenchBase {

  test("T5: MIA trees are interactive and theta-controlled") {
    val (table, rows) = Experiments.t5(ctx("T5"))
    printTable(table)

    // shape: tree size and MIA spread grow as theta shrinks
    rows.map(_.size).sliding(2).foreach(p => assert(p(1) >= p(0)))
    rows.map(_.treeSpread).sliding(2).foreach(p => assert(p(1) >= p(0) - 1e-9))
    // interactivity: every tree builds in well under a second at 5k users
    rows.foreach(r => assert(r.millis < 1000, s"theta ${r.theta}: ${r.millis} ms"))
    // coverage: the finest tree captures a meaningful share of MC spread
    val finest = rows.last
    val coverage = finest.treeSpread / finest.mcSpread
    println(f"T5 summary: finest-theta coverage $coverage%.2f")
    assert(coverage > 0.3 && coverage <= 1.05, s"coverage $coverage")
  }
}
