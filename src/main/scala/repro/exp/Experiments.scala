package repro.exp

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.data.{SocialDataGen, SocialDataset}
import repro.engine.Octopus
import repro.topic.{TopicEM, TopicModel}

/** Table harnesses for EXPERIMENTS.md — one function per table T1..T6
  * (see DESIGN.md §4 for the mapping from the paper's demo scenarios and
  * efficiency claims to these tables). This file is the one definition of
  * every table: [[networks]] fixes the network each table runs on, and
  * each `tN` fixes its own parameters and picks its own targets. T1–T5
  * take their service rows from an [[Octopus]] built over the table's
  * dataset, and compute only the baselines and evaluations here. Each
  * returns a [[Experiments.Table]] so the bench suites can both assert
  * the expected *shape* and print the rows recorded in EXPERIMENTS.md,
  * and `TableJob` can emit the same rows.
  */
object Experiments {

  /** A rendered table: title, column header, and formatted rows. */
  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(_(i).length).max)
      def fmt(r: Seq[String]) =
        r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (s"### $title" +: fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
    }
  }

  /** Shared experiment context: dataset + its ground-truth model (the one
    * `Octopus.build` adopts), deterministic in its [[Network]].
    */
  final case class Ctx(spark: SparkSession, ds: SocialDataset, model: TopicModel)

  /** A table's network: 4 topics, generator seed 42.
    *
    * @param friend use the dense reciprocal FriendLite network (the QQ
    *               stand-in) instead of the sparse citation-style CiteLite
    */
  final case class Network(sf: Double, vocabSize: Int = 80, friend: Boolean = false)

  /** The network each table runs on, keyed by table id. */
  val networks: Map[String, Network] = Map(
    "T1" -> Network(0.05, friend = true),
    "T2" -> Network(0.05),
    "T3" -> Network(0.01, vocabSize = 40),
    "T4" -> Network(0.05),
    "T5" -> Network(0.1),
    "T6" -> Network(0.01, vocabSize = 40),
  )

  def ctx(spark: SparkSession, net: Network): Ctx = {
    val ds =
      if (net.friend) SynthData.friendLite(spark, net.sf, seed = 42L, vocabSize = net.vocabSize)
      else SynthData.citeLite(spark, net.sf, seed = 42L, vocabSize = net.vocabSize)
    Ctx(spark, ds, TopicEM.fromTruth(ds))
  }

  /** A timed table's rows: one warm pass calls every `f` in `fs` once,
    * then each `f` is called 5 more times. Per `f`, the median wall time
    * of those 5, in ms, with the first of their results.
    */
  private def medianMs[A](fs: Seq[() => A]): Seq[(A, Double)] = {
    fs.foreach(_())
    fs.map { f =>
      val runs = Seq.fill(5) {
        val t0 = System.nanoTime()
        val res = f()
        (res, (System.nanoTime() - t0) / 1e6)
      }
      (runs.head._1, runs.map(_._2).sorted.apply(2))
    }
  }

  /** Pure-topic keyword queries (two keywords from each topic's band)
    * plus one cross-topic query — the workload for T1/T2.
    */
  def keywordQueries(model: TopicModel, numQueries: Int): Seq[Seq[String]] = {
    val z = model.numTopics
    val pure = (0 until math.min(z, numQueries)).map { t =>
      Seq(SocialDataGen.keywordName(t, 0), SocialDataGen.keywordName(t, 1))
    }
    val mixed = Seq(SocialDataGen.keywordName(0, 0), SocialDataGen.keywordName(1 % z, 0))
    (pure :+ mixed).take(numQueries)
  }

  // ------------------------------------------------------------------
  // T1 — Scenario 1: diversity of KIM seeds vs individual ranking
  // ------------------------------------------------------------------
  final case class T1Row(query: String, overlap: Double, spreadKim: Double, spreadTop: Double)

  def t1(c: Ctx): (Table, Seq[T1Row]) = {
    val k = 5
    val sys = Octopus.build(c.spark, c.ds)
    val g = c.model.graph
    val rows = keywordQueries(c.model, 4).map { q =>
      val (_, kim, gamma) = sys.influentialUsers(q, k)
      val probs = g.mixedProbs(gamma)
      val top = GreedyIM.topIndividual(g, probs, k, BestEffortKIM.Config().numSamples, seed = 11L)
      // Fair final comparison: fresh high-precision estimate for both.
      val sKim = SpreadEstimator.mcSpread(g, probs, kim.seeds, 1000, seed = 99L)
      val sTop = SpreadEstimator.mcSpread(g, probs, top.seeds, 1000, seed = 99L)
      val overlap = kim.seeds.toSet.intersect(top.seeds.toSet).size.toDouble / k
      T1Row(q.mkString(" "), overlap, sKim, sTop)
    }
    val table = Table(
      "T1 — Keyword-based influential user discovery: IM vs individual ranking (Scenario 1)",
      Seq("query", "seed overlap", "spread(KIM)", "spread(top-individual)", "lift"),
      rows.map(r => Seq(r.query, f"${r.overlap}%.2f", f"${r.spreadKim}%.1f", f"${r.spreadTop}%.1f",
        f"${r.spreadKim / math.max(r.spreadTop, 1e-9)}%.2fx")),
    )
    (table, rows)
  }

  // ------------------------------------------------------------------
  // T2 — online KIM efficiency: naive / CELF / best-effort
  // ------------------------------------------------------------------
  final case class T2Row(query: String, k: Int, method: String, millis: Double,
                         evals: Long, spread: Double)

  def t2(c: Ctx): (Table, Seq[T2Row]) = {
    val g = c.model.graph
    val cfg = BestEffortKIM.Config(numSamples = 100)
    val sys = Octopus.build(c.spark, c.ds, kimConfig = cfg)
    // The baselines time seed selection on the query's mixed probabilities;
    // the service call also derives γ and mixes them.
    val calls = for {
      q <- keywordQueries(c.model, 2)
      k <- Seq(1, 5)
      probs = g.mixedProbs(c.model.gammaFor(q))
      (method, run) <- Seq[(String, () => GreedyIM.IMResult)](
        "naive-greedy" -> (() => GreedyIM.naiveGreedy(g, probs, k, cfg.numSamples, cfg.seed)),
        "celf" -> (() => GreedyIM.celf(g, probs, k, cfg.numSamples, cfg.seed)),
        "best-effort" -> (() => sys.influentialUsers(q, k)._2),
      )
    } yield ((q.mkString(" "), k, method), run)
    val rows = calls.map(_._1).zip(medianMs(calls.map(_._2))).map { case ((q, k, method), (res, ms)) =>
      T2Row(q, k, method, ms, res.spreadEvals, res.spread)
    }
    val table = Table(
      "T2 — Online KIM: latency and #spread evaluations per method (§I/§II-C efficiency claim)",
      Seq("query", "k", "method", "ms", "spread evals", "spread"),
      rows.map(r => Seq(r.query, r.k.toString, r.method, f"${r.millis}%.2f", r.evals.toString,
        f"${r.spread}%.1f")),
    )
    (table, rows)
  }

  // ------------------------------------------------------------------
  // T3 — Scenario 2 quality: suggested keywords vs exhaustive optimum
  // ------------------------------------------------------------------
  final case class T3Row(target: Int, k: Int, suggested: Seq[String], best: Seq[String],
                         ratio: Double, coherent: Boolean)

  def t3(c: Ctx): (Table, Seq[T3Row]) = {
    val sys = Octopus.build(c.spark, c.ds, rrSamples = 500)
    val rows = for {
      target <- GreedyIM.topDegree(c.model.graph, 3)
      k <- Seq(1, 2)
    } yield {
      val sug = sys.suggestKeywords(target, k, poolSize = 10)
      val best = KeywordSuggest.bestByExhaustiveMC(c.model, target, k, numSamples = 300)
      val sSug = KeywordSuggest.evaluate(c.model, target, sug.keywords)
      val sBest = KeywordSuggest.evaluate(c.model, target, best.keywords)
      val bands = sug.keywords.map(kw =>
        SocialDataGen.band(c.model.keywordIndex(kw), c.model.numTopics, c.model.vocab.length))
      T3Row(target, k, sug.keywords, best.keywords,
        math.min(1.0, sSug / math.max(sBest, 1e-9)), bands.distinct.size == 1)
    }
    val table = Table(
      "T3 — Personalized keyword suggestion quality vs exhaustive optimum (Scenario 2)",
      Seq("target", "k", "suggested", "exhaustive best", "spread ratio", "topic-coherent"),
      rows.map(r => Seq(r.target.toString, r.k.toString, r.suggested.mkString(" "),
        r.best.mkString(" "), f"${r.ratio}%.2f", r.coherent.toString)),
    )
    (table, rows)
  }

  // ------------------------------------------------------------------
  // T4 — Scenario 2 efficiency: fresh-MC enumeration vs influencer index
  // ------------------------------------------------------------------
  final case class T4Row(target: Int, k: Int, mcMillis: Double, idxMillis: Double,
                         speedup: Double, agree: Double)

  def t4(c: Ctx): (Table, Seq[T4Row], Long) = {
    val k = 2
    val poolSize = 10
    val sys = Octopus.build(c.spark, c.ds)
    val tIdx0 = System.nanoTime()
    sys.rrIndex
    val indexBuildMs = (System.nanoTime() - tIdx0) / 1000000
    val targets = GreedyIM.topDegree(c.model.graph, 4)
    val timed = medianMs(targets.flatMap { target =>
      Seq(() => KeywordSuggest.suggestMC(c.model, target, k, poolSize, numSamples = 200),
        () => sys.suggestKeywords(target, k, poolSize))
    })
    val rows = targets.zip(timed.grouped(2)).map { case (target, Seq((mc, mcMs), (idx, idxMs))) =>
      val sMc = KeywordSuggest.evaluate(c.model, target, mc.keywords)
      val sIdx = KeywordSuggest.evaluate(c.model, target, idx.keywords)
      T4Row(target, k, mcMs, idxMs, mcMs / idxMs, math.min(1.0, sIdx / math.max(sMc, 1e-9)))
    }
    val table = Table(
      "T4 — Keyword suggestion latency: fresh-MC enumeration vs influencer index (§II-D claim)",
      Seq("target", "k", "fresh-MC ms", "index ms", "speedup", "quality vs MC"),
      rows.map(r => Seq(r.target.toString, r.k.toString, f"${r.mcMillis}%.2f",
        f"${r.idxMillis}%.2f", f"${r.speedup}%.1fx", f"${r.agree}%.2f")),
    )
    (table, rows, indexBuildMs)
  }

  // ------------------------------------------------------------------
  // T5 — Scenario 3: MIA tree size / latency / coverage vs θ
  // ------------------------------------------------------------------
  final case class T5Row(root: Int, theta: Double, size: Int, millis: Double,
                         treeSpread: Double, mcSpread: Double)

  def t5(c: Ctx): (Table, Seq[T5Row]) = {
    val g = c.model.graph
    val sys = Octopus.build(c.spark, c.ds)
    val root = GreedyIM.topDegree(g, 1).head
    val mc = SpreadEstimator.mcSpread(g, g.mixedProbs(c.model.prior), Seq(root), 2000, seed = 55L)
    val thetas = Seq(0.1, 0.05, 0.01, 0.001)
    val timed = medianMs(thetas.map(theta => () => sys.influencePaths(root, Seq.empty, theta)))
    val rows = thetas.zip(timed).map { case (theta, (tree, ms)) =>
      T5Row(root, theta, tree.size, ms, tree.treeSpread, mc)
    }
    val table = Table(
      "T5 — Influential path exploration: MIA tree vs threshold θ (Scenario 3)",
      Seq("root", "theta", "tree size", "ms", "MIA spread", "MC spread", "coverage"),
      rows.map(r => Seq(r.root.toString, r.theta.toString, r.size.toString, f"${r.millis}%.2f",
        f"${r.treeSpread}%.1f", f"${r.mcSpread}%.1f", f"${r.treeSpread / r.mcSpread}%.2f")),
    )
    (table, rows)
  }

  // ------------------------------------------------------------------
  // T6 — model learning: EM recovery of the generating TIC model
  // ------------------------------------------------------------------
  final case class T6Result(logLik: Seq[Double], keywordAlignment: Double, edgeMae: Double,
                            mapping: Seq[Int])

  def t6(c: Ctx): (Table, T6Result) = {
    val z = c.model.numTopics
    val res = TopicEM.learn(c.spark, c.ds.edges, c.ds.items, c.ds.actions, c.ds.vocab, z, 6)
    val learned = res.model

    // Greedy topic matching: map each learned topic to the true topic
    // whose keyword band it puts the most φ mass on.
    val v = learned.vocab.length
    val bandOf = Array.tabulate(v)(SocialDataGen.band(_, z, v))
    val mass = Array.tabulate(z, z) { (lt, tt) =>
      (0 until v).filter(bandOf(_) == tt).map(learned.phi(lt)).sum
    }
    val mapping = new Array[Int](z) // learned -> true
    val usedTrue = scala.collection.mutable.Set.empty[Int]
    val order = (0 until z).sortBy(lt => -mass(lt).max)
    order.foreach { lt =>
      val tt = (0 until z).filterNot(usedTrue).maxBy(t => mass(lt)(t))
      mapping(lt) = tt; usedTrue += tt
    }

    // Keyword alignment: does a keyword's argmax learned topic map to its
    // generating band?
    val aligned = (0 until v).count { w =>
      val lt = (0 until z).maxBy(t => learned.phi(t)(w))
      mapping(lt) == bandOf(w)
    }
    val keywordAlignment = aligned.toDouble / v

    // Edge-probability recovery (after topic permutation).
    val gTrue = c.ds.truthGraph
    val gLearn = learned.graph
    var mae = 0.0
    var cnt = 0
    var e = 0
    while (e < gLearn.numEdges) {
      var lt = 0
      while (lt < z) {
        mae += math.abs(gLearn.topicProb(e, lt) - gTrue.topicProb(e, mapping(lt)))
        cnt += 1; lt += 1
      }
      e += 1
    }
    mae /= cnt

    val r = T6Result(res.logLikelihood, keywordAlignment, mae, mapping.toSeq)
    val table = Table(
      "T6 — EM learning of the TIC model: recovery of the generating parameters (§II-B)",
      Seq("metric", "value"),
      Seq(
        Seq("log-likelihood (first iter)", f"${r.logLik.head}%.1f"),
        Seq("log-likelihood (last iter)", f"${r.logLik.last}%.1f"),
        Seq("monotone non-decreasing", r.logLik.sliding(2).forall(p => p(1) >= p(0) - 1e-6).toString),
        Seq("keyword-topic alignment", f"${r.keywordAlignment}%.2f (chance ${1.0 / z}%.2f)"),
        Seq("edge-prob MAE vs truth", f"${r.edgeMae}%.4f"),
      ),
    )
    (table, r)
  }
}
