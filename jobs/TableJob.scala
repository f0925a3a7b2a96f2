package repro.jobs

import repro.exp.Experiments

/** spark-submit entrypoint for the tables in EXPERIMENTS.md:
  * `TableJob T<i> [sf]` prints the rows the T<i> bench suite records, on
  * the table's network from [[Experiments.networks]]. The optional second
  * arg overrides that network's scale factor.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val id = args.headOption.getOrElse("")
    val net = Experiments.networks.getOrElse(id, throw new IllegalArgumentException(
      s"usage: TableJob T<i> [sf], T<i> one of ${Experiments.networks.keys.toSeq.sorted.mkString(" ")}"))
    val spark = JobSession.get(s"octopus-${id.toLowerCase}")
    val c = Experiments.ctx(spark, net.copy(sf = JobSession.sfArg(args.drop(1), net.sf)))
    id match {
      case "T1" => println(Experiments.t1(c)._1.render)
      case "T2" => println(Experiments.t2(c)._1.render)
      case "T3" => println(Experiments.t3(c)._1.render)
      case "T4" =>
        val (table, _, buildMs) = Experiments.t4(c)
        println(table.render)
        println(s"(influencer index build, amortized over all queries: ${buildMs} ms)")
      case "T5" => println(Experiments.t5(c)._1.render)
      case "T6" => println(Experiments.t6(c)._1.render)
    }
    spark.stop()
  }
}
