package repro.jobs

import repro.SynthData
import repro.engine.Octopus

/** Scenario 1 entrypoint — keyword-based influential user discovery.
  *
  * Usage: `spark-submit ... repro.jobs.KimQueryJob [sf] [k] [keyword...]`
  */
object KimQueryJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("octopus-kim-query")
    val sf = JobSession.sfArg(args)
    val k = args.lift(1).map(_.toInt).getOrElse(5)
    val keywords = if (args.length > 2) args.drop(2).toSeq else Seq("kw_t0_0", "kw_t0_1")
    val sys = Octopus.build(spark, SynthData.citeLite(spark, sf))
    val t0 = System.nanoTime()
    val (names, res, gamma) = sys.influentialUsers(keywords, k)
    val ms = (System.nanoTime() - t0) / 1e6
    println(s"query keywords: ${keywords.mkString(" ")}")
    println(s"derived gamma:  ${gamma.map(g => f"$g%.3f").mkString("[", ", ", "]")}")
    println(f"spread=${res.spread}%.1f evals=${res.spreadEvals} ms=$ms%.1f")
    names.zip(res.seeds).foreach { case (n, id) => println(s"  seed: $n (id=$id)") }
    spark.stop()
  }
}

/** Scenario 2 entrypoint — personalized influential keyword suggestion.
  *
  * Usage: `spark-submit ... repro.jobs.SuggestJob [sf] [targetId] [k]`
  */
object SuggestJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("octopus-suggest")
    val sf = JobSession.sfArg(args)
    val target = args.lift(1).map(_.toInt).getOrElse(0)
    val k = args.lift(2).map(_.toInt).getOrElse(3)
    val sys = Octopus.build(spark, SynthData.citeLite(spark, sf))
    val res = sys.suggestKeywords(target, k)
    println(s"target: ${sys.userNames(target)}")
    println(s"suggested keywords: ${res.keywords.mkString(" ")}")
    println(s"gamma: ${res.gamma.map(g => f"$g%.3f").mkString("[", ", ", "]")}")
    println(f"estimated spread=${res.estSpread}%.1f ms=${res.millis}")
    spark.stop()
  }
}

/** Scenario 3 entrypoint — influential path exploration (MIA).
  *
  * Usage: `spark-submit ... repro.jobs.MiaJob [sf] [targetId] [theta] [out|in]`
  */
object MiaJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("octopus-mia")
    val sf = JobSession.sfArg(args)
    val target = args.lift(1).map(_.toInt).getOrElse(0)
    val theta = args.lift(2).map(_.toDouble).getOrElse(0.01)
    val outward = !args.lift(3).contains("in")
    val sys = Octopus.build(spark, SynthData.citeLite(spark, sf))
    val df = sys.influencePathsDf(target, Seq.empty, theta, outward)
    println(s"${if (outward) "influence" else "influenced-by"} tree of ${sys.userNames(target)} (theta=$theta):")
    df.orderBy(df("pathProb").desc).show(30, truncate = false)
    spark.stop()
  }
}
