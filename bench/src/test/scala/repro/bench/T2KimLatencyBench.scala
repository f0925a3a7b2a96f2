package repro.bench

import repro.exp.Experiments

/** T2 — the paper's central efficiency claim (§I, §II-C): per-query
  * naïve IM is "extremely expensive ... cannot be used for answering
  * online keyword queries", while the best-effort bounds give online
  * answers at naïve-greedy quality.
  */
class T2KimLatencyBench extends BenchBase {

  test("T2: best-effort prunes most spread evaluations at equal quality") {
    val (table, rows) = Experiments.t2(ctx("T2"))
    printTable(table)

    val grouped = rows.groupBy(r => (r.query, r.k))
    grouped.foreach { case (key, rs) =>
      val m = rs.map(r => r.method -> r).toMap
      // pruning order
      assert(m("best-effort").evals <= m("celf").evals, s"$key")
      assert(m("celf").evals <= m("naive-greedy").evals, s"$key")
      // pruning magnitude: naive evaluates every user every round. The
      // bound-driven queue always cuts work (≥2x even at k=1, where a
      // single round leaves the bounds least room); for multi-seed
      // queries the reduction must be wide (≥5x).
      val factor = m("naive-greedy").evals.toDouble / math.max(m("best-effort").evals, 1)
      assert(factor >= 2.0, s"$key: only ${factor}x fewer evals than naive")
      if (key._2 >= 5) assert(factor >= 5.0, s"$key: only ${factor}x fewer evals than naive")
      // equal quality
      assert(m("best-effort").spread >= 0.93 * m("naive-greedy").spread, s"$key")
    }
    val f = grouped.map { case (_, rs) =>
      val m = rs.map(r => r.method -> r).toMap
      m("naive-greedy").evals.toDouble / math.max(m("best-effort").evals, 1)
    }
    println(f"T2 summary: naive/best-effort eval reduction ${f.min}%.0fx–${f.max}%.0fx")
  }
}
