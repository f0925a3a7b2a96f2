package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.data.SocialDataset
import repro.engine.Octopus

import scala.collection.mutable

/** Closed-loop service benchmark for the OCTOPUS engine.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
  *
  * One client thread issues the next request when the last returns.
  * `--trace 0` times the public `Octopus` services and prints the
  * end-to-end metrics; `--trace 1` additionally replays every request as
  * its composed layer calls with spans and prints per-layer metrics.
  * The last stdout line is the JSON result; the report goes to stderr.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean, out: Path)

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv)
    val spark = session(opts.out)
    val result =
      try if (opts.trace) traced(spark, opts) else timed(spark, opts)
      finally spark.stop()
    println(result)
  }

  private def parse(argv: Array[String]): Opts = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val wl = Workload.byName(need("workload"))
      .getOrElse(usage(s"unknown workload; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case other => usage(s"--trace must be 0 or 1, got $other")
    }
    val seconds = need("seconds").toInt
    if (seconds < 1) usage("--seconds must be at least 1")
    Opts(wl, need("seed").toLong, seconds, trace, Paths.get(need("out")))
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println("usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>")
    sys.exit(2)
  }

  // Fixed local parallelism and a matching shuffle width, so set-up does
  // the same work on any machine; the other settings keep every file the
  // run writes under the output directory.
  private def session(out: Path): SparkSession = {
    val s = SparkSession.builder
      .master("local[4]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def log(msg: String): Unit = System.err.println(s"[perfbench] $msg")

  // ---------------------------------------------------------------- set-up

  /** Set up `Workload.SetupReps` times; keep the last dataset and system. */
  private def setupReps(spark: SparkSession, o: Opts): (Seq[Double], SocialDataset, Octopus) = {
    var last: (SocialDataset, Octopus) = null
    val secs = (0 until Workload.SetupReps).map { _ =>
      last = null
      val (r, ns) = Meters.timed(Workload.setup(spark, o.workload))
      last = r
      ns / 1e9
    }
    (secs, last._1, last._2)
  }

  /** Deterministic counters of the offline phase. */
  private def setupCounters(ds: SocialDataset, sys: Octopus): Seq[(String, Long)] = {
    val idx = sys.rrIndex
    Seq(
      "action_rows" -> ds.actions.count(),
      "stored_edges" -> idx.samples.iterator.map(_.inEdges.valuesIterator.map(_.length.toLong).sum).sum,
      "truncated_samples" -> idx.samples.count(_.truncated).toLong,
    )
  }

  // ---------------------------------------------------------------- checks

  final case class CheckPass(reference: Array[String], failed: Int, counters: Seq[(String, Long)], digest: String)

  /** The first pass: warms the JIT, checks every distinct answer, and
    * records the canonical answers the timed loop is compared against.
    */
  private def checkPass(sys: Octopus, reqs: Vector[Request]): CheckPass = {
    val reference = new Array[String](reqs.length)
    var failed = 0
    var evals = 0L; var nodes = 0L; var sets = 0L
    reqs.indices.foreach { i =>
      val r = reqs(i)
      try {
        val a = Workload.serve(sys, r)
        val errors = Checks.check(sys, r, a)
        errors.foreach(e => log(s"CHECK FAILED $e"))
        if (errors.nonEmpty) failed += 1 else reference(i) = a.canonical
        a match {
          case KimAnswer(res) => evals += res.spreadEvals
          case MiaAnswer(t)   => nodes += t.size
          case _              =>
        }
        r match {
          case q: Suggest => sets += Checks.candidateSets(sys, q)
          case _          =>
        }
      } catch {
        case e: Exception => failed += 1; log(s"REQUEST FAILED $r: $e")
      }
    }
    val digest = sha256(reqs.indices.map(i => s"$i ${Option(reference(i)).getOrElse("<failed>")}").mkString("\n"))
    CheckPass(reference, failed, Seq("spread_evals" -> evals, "tree_nodes" -> nodes, "candidate_sets" -> sets), digest)
  }

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(StandardCharsets.UTF_8)).map("%02x".format(_)).mkString

  private def writeSelfCheck(o: Opts, digest: String, counters: Seq[(String, Long)]): Unit = {
    val fields = (("\"digest\"" -> s"\"$digest\"") +: counters.map { case (k, v) => s"\"$k\"" -> v.toString })
      .map { case (k, v) => s"$k: $v" }
    Files.createDirectories(o.out)
    Files.writeString(o.out.resolve("selfcheck.json"), fields.mkString("{", ", ", "}\n"))
    log(s"answer digest $digest")
    log("deterministic counters " + counters.map { case (k, v) => s"$k=$v" }.mkString(" "))
  }

  // ---------------------------------------------------------------- timed

  private def timed(spark: SparkSession, o: Opts): String = {
    val baseHeapMb = Meters.liveHeapMb()
    val (setupSecs, ds, sys) = setupReps(spark, o)
    log(f"phase=setup workload=${o.workload.name} seed=${o.seed} reps=${setupSecs.length} " +
      setupSecs.map(s => f"$s%.3f").mkString("secs=", ",", ""))
    // Measured before the counters below: a Spark action on the generated
    // action log makes Spark hold on to ~120 MB that set-up itself does not.
    val heapMb = Meters.liveHeapMb()
    log(f"live heap: $baseHeapMb%.1f MB before set-up, $heapMb%.1f MB after")
    val setupCounts = setupCounters(ds, sys)

    val reqs = Workload.requests(sys, o.seed)
    val check = checkPass(sys, reqs)
    log(s"phase=check seed=${o.seed} sent=${reqs.length} succeeded=${reqs.length - check.failed} failed=${check.failed}")
    writeSelfCheck(o, check.digest, setupCounts ++ check.counters)
    reqs.foreach(Workload.serve(sys, _)) // second JIT warm-up pass

    val latencies = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    var sent = 0; var failed = 0
    var busyNs = 0L
    // Whole passes only, so every request is sampled equally often and the
    // percentiles do not depend on where a pass was cut.
    val deadline = System.nanoTime() + o.seconds * 1000000000L
    while (sent % reqs.length != 0 || System.nanoTime() < deadline) {
      val i = sent % reqs.length
      val r = reqs(i)
      sent += 1
      val t0 = System.nanoTime()
      val outcome =
        try Right(Workload.serve(sys, r))
        catch { case e: Exception => Left(e) }
      val ns = System.nanoTime() - t0
      busyNs += ns
      outcome match {
        case Right(a) if a.canonical == check.reference(i) =>
          latencies.getOrElseUpdate(r.service, mutable.ArrayBuffer.empty) += ns / 1e6
        case Right(_) => failed += 1; log(s"ANSWER CHANGED $r")
        case Left(e)  => failed += 1; log(s"REQUEST FAILED $r: $e")
      }
    }
    val busySecs = busyNs / 1e9
    log(s"phase=timed seed=${o.seed} sent=$sent succeeded=${sent - failed} failed=$failed busy_s=$busySecs")
    val attempted = reqs.length + sent
    val allFailed = check.failed + failed
    log(f"failed_frac=${allFailed.toDouble / attempted}%.6f ($allFailed of $attempted)")
    def pct(service: String, q: Double) = latencies.get(service).map(xs => Stats.percentile(xs.toSeq, q))
    latencies.keys.toSeq.sorted.foreach { s =>
      log(f"service=$s samples=${latencies(s).length} p50_ms=${pct(s, 0.5).get}%.3f p90_ms=${pct(s, 0.9).get}%.3f")
    }
    // Suggestion latency is bimodal per call (about 10 ms or 16 ms for the
    // same request), so its median sits between the modes and moved by up
    // to 28% between runs; only its p90 is a metric.
    val metrics = Seq(
      "setup_s" -> (Some(Stats.median(setupSecs)), "s"),
      "heap_mb" -> (Some(heapMb), "MB"),
      "queries_per_s" -> (Some((sent - failed) / busySecs), "1/s"),
      "kim_p50_ms" -> (pct("kim", 0.5), "ms"),
      "kim_p90_ms" -> (pct("kim", 0.9), "ms"),
      "suggest_p90_ms" -> (pct("suggest", 0.9), "ms"),
      "mia_p50_ms" -> (pct("mia", 0.5), "ms"),
      "mia_p90_ms" -> (pct("mia", 0.9), "ms"),
    )
    resultJson(allFailed == 0, attempted, allFailed, metrics)
  }

  // ---------------------------------------------------------------- traced

  private final class JobCounter extends SparkListener {
    @volatile var jobs = 0L
    @volatile var taskMs = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      synchronized { if (e.taskInfo != null) taskMs += e.taskInfo.duration }
  }

  /** Fingerprint of everything the offline phase produces. */
  private def systemDigest(sys: Octopus): String = {
    val m = sys.model
    val g = m.graph
    sha256(Seq(
      m.prior.mkString(","), m.phi.map(_.mkString(",")).mkString(";"), m.vocab.mkString(","),
      g.outOffsets.mkString(","), g.outDst.mkString(","), g.outProbs.mkString(","),
      sys.userNames.mkString(","), sys.precomp.mkString(","),
      sys.rrIndex.samples.map(s => s"${s.sampleId}:${s.root}:${s.truncated}:" +
        s.inEdges.toSeq.sortBy(_._1).map { case (v, es) => s"$v<" + es.mkString(",") }.mkString("/")).mkString(";"),
    ).mkString("\n"))
  }

  private def traced(spark: SparkSession, o: Opts): String = {
    val tracer = new Tracer
    val comp = new Composed(tracer)
    val jobs = new JobCounter
    spark.sparkContext.addSparkListener(jobs)

    // Rep 0 is the untraced service build the requests are answered from;
    // the remaining reps replay it as composed layer calls.
    val (refSetup, setupNs) = Meters.timed(Workload.setup(spark, o.workload))
    val sys = refSetup._2
    val setupCounts = setupCounters(refSetup._1, sys)
    val refDigest = systemDigest(sys)
    var divergences = 0
    var composedSys: Octopus = null
    val repStats = (1 until Workload.SetupReps).map { _ =>
      composedSys = null
      Thread.sleep(200) // the listener bus is asynchronous
      val (j0, t0) = (jobs.jobs, jobs.taskMs)
      val from = tracer.spans.length
      composedSys = comp.setup(spark, o.workload)._2
      Thread.sleep(200)
      if (systemDigest(composedSys) != refDigest) { divergences += 1; log("COMPOSED SET-UP DIVERGES from Octopus.build") }
      val byName = (from until tracer.spans.length).groupBy(i => tracer.spans(i).name)
        .map { case (n, is) => n -> is.map(i => tracer.spans(i).nanos).sum }
      (byName, jobs.jobs - j0, jobs.taskMs - t0)
    }
    log(f"phase=setup workload=${o.workload.name} seed=${o.seed} reps=${Workload.SetupReps} untraced=${setupNs / 1e9}%.3f")
    val reqs = Workload.requests(sys, o.seed)
    if (Workload.requests(composedSys, o.seed) != reqs) { divergences += 1; log("COMPOSED REQUEST LIST DIVERGES") }

    val check = checkPass(sys, reqs)
    log(s"phase=check seed=${o.seed} sent=${reqs.length} succeeded=${reqs.length - check.failed} failed=${check.failed}")

    // Alternate untraced and traced passes until the time is up.
    val untracedNs = new Array[Long](reqs.length)
    val selfUs = mutable.ArrayBuffer.empty[Double]
    var untracedTotal = 0L; var tracedTotal = 0L
    var passes = 0; var sent = 0; var failed = 0
    var gcCount = 0L; var gcMs = 0L; var allocBytes = 0L; var untracedReqs = 0L
    val deadline = System.nanoTime() + o.seconds * 1000000000L
    while (passes == 0 || System.nanoTime() < deadline) {
      val (gc0, gcMs0) = Meters.gc()
      val a0 = Meters.allocatedBytes()
      reqs.indices.foreach { i =>
        sent += 1
        try {
          val (a, ns) = Meters.timed(Workload.serve(sys, reqs(i)))
          untracedNs(i) = ns
          untracedTotal += ns
          if (a.canonical != check.reference(i)) { failed += 1; log(s"ANSWER CHANGED ${reqs(i)}") }
        } catch { case e: Exception => failed += 1; log(s"REQUEST FAILED ${reqs(i)}: $e") }
      }
      allocBytes += Meters.allocatedBytes() - a0
      untracedReqs += reqs.length
      val (gc1, gcMs1) = Meters.gc()
      gcCount += gc1 - gc0; gcMs += gcMs1 - gcMs0

      comp.resetCounters()
      reqs.indices.foreach { i =>
        sent += 1
        val root = tracer.spans.length
        try {
          val a = tracer.request(s"engine.${reqs(i).service}", i)(comp.serve(composedSys, reqs(i)))
          tracedTotal += tracer.spans(root).nanos
          val childNs = tracer.childNanos(root)
          selfUs += (untracedNs(i) - childNs) / 1e3
          if (a.canonical != check.reference(i)) {
            failed += 1; divergences += 1; log(s"COMPOSED ANSWER DIVERGES ${reqs(i)}")
          }
        } catch { case e: Exception => failed += 1; log(s"REQUEST FAILED traced ${reqs(i)}: $e") }
      }
      passes += 1
    }
    log(s"phase=traced seed=${o.seed} passes=$passes sent=$sent succeeded=${sent - failed} failed=$failed " +
      s"divergences=$divergences spans=${tracer.spans.length}")
    val attempted = reqs.length + sent
    val allFailed = check.failed + failed
    log(f"failed_frac=${allFailed.toDouble / attempted}%.6f ($allFailed of $attempted)")
    writeSelfCheck(o, check.digest, setupCounts ++ check.counters)
    tracer.writeJsonLines(o.out.resolve("spans.jsonl"))

    // Request-side layer aggregates over every traced pass.
    val self = tracer.selfNanos()
    val reqSpans = tracer.spans.indices.filter(i => tracer.spans(i).request >= 0)
    val bySpan = reqSpans.groupBy(i => tracer.spans(i).name)
    def calls(name: String) = bySpan.getOrElse(name, IndexedSeq.empty)
    def selfTotal(name: String) = calls(name).map(self(_).toDouble).sum
    def perCall(name: String) = if (calls(name).isEmpty) 0.0 else selfTotal(name) / calls(name).length
    def allocPerCall(name: String) =
      if (calls(name).isEmpty) 0.0 else calls(name).map(tracer.spans(_).allocBytes.toDouble).sum / calls(name).length
    val suggestReqs = calls("engine.suggest").length
    def setupMedian(f: ((Map[String, Long], Long, Long)) => Double) = Stats.median(repStats.map(f))
    def setupSpan(name: String) = setupMedian(_._1.getOrElse(name, 0L).toDouble)

    val emS = setupSpan("topic.em") / 1e9
    val mb = 1048576.0
    val metrics = Seq[(String, (Option[Double], String))](
      "data.generate_s" -> (Some(setupSpan("data.generate") / 1e9), "s"),
      "data.action_rows" -> (Some(setupCounts.toMap.apply("action_rows").toDouble), "count"),
      "data.mix_ms" -> (Some(perCall("data.mix") / 1e6), "ms"),
      "data.mixed_edges" -> (Some(comp.mixedEdges.toDouble), "count"),
      "topic.em_s" -> (Some(emS), "s"),
      "topic.em_iter_s" -> (Some(if (o.workload.learnEM) emS / Workload.EmIterations else 0.0), "s"),
      "topic.gamma_us" -> (Some(perCall("topic.gamma") / 1e3), "us"),
      "spark.jobs" -> (Some(setupMedian(_._2.toDouble)), "count"),
      "spark.task_s" -> (Some(setupMedian(_._3 / 1e3)), "s"),
      "core.bounds.precomp_ms" -> (Some(setupSpan("core.bounds.precomp") / 1e6), "ms"),
      "core.bounds.local_ms" -> (Some(perCall("core.bounds.local") / 1e6), "ms"),
      "core.bounds.capped_frac" -> (Some(comp.cappedUsers.toDouble / math.max(1L, comp.boundedUsers)), "fraction"),
      "core.celf_ms" -> (Some(perCall("core.celf") / 1e6), "ms"),
      "core.celf.spread_evals" -> (Some(comp.spreadEvals.toDouble), "count"),
      "core.celf.pruned_frac" -> (Some(1.0 - comp.spreadEvals.toDouble / math.max(1L, comp.naiveEvals)), "fraction"),
      "core.celf.alloc_mb" -> (Some(allocPerCall("core.celf") / mb), "MB"),
      "core.rr.build_ms" -> (Some(setupSpan("core.rr.build") / 1e6), "ms"),
      "core.rr.stored_edges" -> (Some(setupCounts.toMap.apply("stored_edges").toDouble), "count"),
      "core.rr.truncated_samples" -> (Some(setupCounts.toMap.apply("truncated_samples").toDouble), "count"),
      "core.rr.walk_ms" -> (Some(selfTotal("core.rr.walk") / math.max(1, suggestReqs) / 1e6), "ms"),
      "core.rr.walks" -> (Some(comp.rrWalks.toDouble), "count"),
      "core.suggest.pool_us" -> (Some(perCall("core.suggest.pool") / 1e3), "us"),
      "core.suggest.candidate_sets" -> (Some(comp.candidateSets.toDouble), "count"),
      "core.suggest.alloc_mb" -> (Some(allocPerCall("engine.suggest") / mb), "MB"),
      "core.mia_us" -> (Some(perCall("core.mia") / 1e3), "us"),
      "core.mia.tree_nodes" -> (Some(comp.treeNodes.toDouble), "count"),
      "core.mia.alloc_kb" -> (Some(allocPerCall("core.mia") / 1024.0), "KB"),
      "engine.self_us" -> (Some(Stats.median(selfUs.toSeq)), "us"),
      "jvm.gc_ms" -> (Some(gcMs.toDouble / passes), "ms"),
      "jvm.gc_count" -> (Some(gcCount.toDouble / passes), "count"),
      "jvm.alloc_mb_per_query" -> (Some(allocBytes / mb / math.max(1L, untracedReqs)), "MB"),
      "trace.overhead_frac" -> (Some(tracedTotal.toDouble / math.max(1L, untracedTotal) - 1.0), "fraction"),
    )
    resultJson(allFailed == 0 && divergences == 0, attempted, allFailed, metrics)
  }

  // ---------------------------------------------------------------- output

  private def resultJson(correct: Boolean, attempted: Int, failed: Int,
                         metrics: Seq[(String, (Option[Double], String))]): String = {
    val missing = metrics.collect { case (k, (None, _)) => k }
    if (missing.nonEmpty) log(s"NO SAMPLES for ${missing.mkString(", ")}")
    val body = metrics.collect { case (k, (Some(v), unit)) =>
      s""""$k": {"value": ${if (v.isNaN || v.isInfinite) "null" else v.toString}, "unit": "$unit"}"""
    }
    s"""{"correct": ${correct && missing.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
  }
}
