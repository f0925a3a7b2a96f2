package repro.bench

import repro.exp.Experiments

/** T6 — the modeling substrate (§II-B): the distributed EM learner must
  * recover the generating TIC model from the action logs — ascending
  * likelihood, keyword-topic alignment far above chance, small edge-
  * probability error.
  */
class T6ModelRecoveryBench extends BenchBase {

  test("T6: EM recovers the generating topic-aware IC model") {
    val c = ctx("T6")
    val (table, r) = Experiments.t6(c)
    printTable(table)

    assert(r.logLik.sliding(2).forall(p => p(1) >= p(0) - 1e-6), s"descent in ${r.logLik}")
    val z = c.model.numTopics
    assert(r.keywordAlignment >= 0.5, s"alignment ${r.keywordAlignment} (chance ${1.0 / z})")
    assert(r.edgeMae <= 0.15, s"edge MAE ${r.edgeMae}")
    assert(r.mapping.sorted == (0 until z))
  }
}
