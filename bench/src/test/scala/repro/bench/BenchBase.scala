package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Shared context for the table benchmarks. Each table runs on the
  * network [[Experiments.networks]] gives it; those scales keep the whole
  * bench run to minutes on a laptop-class machine while being 10–40×
  * larger than the unit-test graphs. EXPERIMENTS.md records the rows
  * these suites print.
  */
trait BenchBase extends SparkSpec {

  /** The context of table `id` ("T1".."T6"). */
  def ctx(id: String): Experiments.Ctx = BenchBase.ctx(this, Experiments.networks(id))

  def printTable(t: Experiments.Table): Unit = {
    println()
    println(t.render)
    println()
  }
}

object BenchBase {
  // Contexts are shared across bench suites within the single forked JVM,
  // one per network (T2/T4 and T3/T6 share theirs).
  private val contexts = scala.collection.mutable.Map.empty[Experiments.Network, Experiments.Ctx]

  def ctx(b: BenchBase, net: Experiments.Network): Experiments.Ctx = synchronized {
    contexts.getOrElseUpdate(net, Experiments.ctx(b.spark, net))
  }
}
