package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.data.CompactGraph

import scala.collection.mutable

/** Greedy IM baselines: CELF ≡ plain greedy on shared worlds, and the
  * individual-ranking baseline Scenario 1 contrasts against.
  */
class GreedyIMSpec extends AnyFunSuite {

  test("obvious best first seed is picked on a star graph") {
    val g = TestGraphs.single(5, (0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9), (3, 4, 0.1))
    val probs = g.mixedProbs(Array(1.0))
    val r = GreedyIM.naiveGreedy(g, probs, 1, 300, 1)
    assert(r.seeds == Seq(0))
  }

  test("CELF matches naive greedy's spread on shared worlds") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(seed * 7, n = 9, maxEdges = 14)
      val probs = g.mixedProbs(Array(0.5, 0.5))
      val naive = GreedyIM.naiveGreedy(g, probs, 3, 200, 5)
      val celf = GreedyIM.celf(g, probs, 3, 200, 5)
      assert(math.abs(naive.spread - celf.spread) < 1e-9,
        s"seed=$seed naive=${naive.spread} celf=${celf.spread}")
    }
  }

  test("CELF picks the same unique-best first seed as naive greedy") {
    val g = TestGraphs.random(50, n = 9, maxEdges = 14)
    val probs = g.mixedProbs(Array(0.7, 0.3))
    val naive = GreedyIM.naiveGreedy(g, probs, 1, 200, 5)
    val celf = GreedyIM.celf(g, probs, 1, 200, 5)
    assert(naive.seeds == celf.seeds)
  }

  test("CELF never evaluates more spreads than naive greedy") {
    val g = TestGraphs.random(51, n = 10, maxEdges = 14)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val naive = GreedyIM.naiveGreedy(g, probs, 3, 100, 5)
    val celf = GreedyIM.celf(g, probs, 3, 100, 5)
    assert(celf.spreadEvals <= naive.spreadEvals)
  }

  test("naive greedy evaluation count is exactly sum of remaining candidates") {
    val g = TestGraphs.random(52, n = 8)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val r = GreedyIM.naiveGreedy(g, probs, 3, 50, 5)
    assert(r.spreadEvals == 8 + 7 + 6)
  }

  test("spread grows monotonically with k") {
    val g = TestGraphs.random(53, n = 10)
    val probs = g.mixedProbs(Array(0.4, 0.6))
    val spreads = (1 to 4).map(k => GreedyIM.celf(g, probs, k, 200, 5).spread)
    spreads.sliding(2).foreach(p => assert(p(1) >= p(0) - 1e-9))
  }

  test("seeds are distinct and of requested size") {
    val g = TestGraphs.random(54, n = 10)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val r = GreedyIM.celf(g, probs, 4, 100, 5)
    assert(r.seeds.size == 4 && r.seeds.distinct.size == 4)
  }

  test("k = n selects every node") {
    val g = TestGraphs.random(55, n = 6)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val r = GreedyIM.celf(g, probs, 6, 50, 5)
    assert(r.seeds.toSet == (0 until 6).toSet)
    assert(r.spread == 6.0)
  }

  test("naive greedy rejects k outside 1..n") {
    val g = TestGraphs.random(56, n = 5)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    intercept[IllegalArgumentException] { GreedyIM.naiveGreedy(g, probs, 6, 20, 5) }
    intercept[IllegalArgumentException] { GreedyIM.naiveGreedy(g, probs, 0, 20, 5) }
    val all = GreedyIM.naiveGreedy(g, probs, 5, 20, 5)
    assert(all.seeds.sorted == (0 until 5) && all.spread == 5.0)
  }

  test("initialUpper with trivial bound n reproduces plain CELF's choice") {
    val g = TestGraphs.random(57, n = 9)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val plain = GreedyIM.celf(g, probs, 2, 200, 5)
    val ub = Array.fill(g.n)(g.n.toDouble)
    val seeded = GreedyIM.celf(g, probs, 2, 200, 5, initialUpper = Some(ub))
    assert(math.abs(plain.spread - seeded.spread) < 1e-9)
  }

  test("a sound tight bound reduces evaluations") {
    val g = TestGraphs.random(58, n = 12)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val plain = GreedyIM.celf(g, probs, 2, 100, 5)
    val bound = Bounds.localUB(g, probs, Bounds.precomputedUB(g), 3).map(_ * 1.05)
    val seeded = GreedyIM.celf(g, probs, 2, 100, 5, initialUpper = Some(bound))
    assert(seeded.spreadEvals <= plain.spreadEvals)
  }

  test("concurrent CELF calls return the serial result bit for bit") {
    val g = TestGraphs.random(61, n = 40, maxEdges = 150)
    val probs = g.mixedProbs(Array(0.6, 0.4))
    val ub = Array.fill(g.n)(g.n.toDouble)
    def run(i: Int): GreedyIM.IMResult =
      GreedyIM.celf(g, probs, 3, 37, 5, initialUpper = if (i % 2 == 0) None else Some(ub))
    type Key = (Seq[Int], Long, Long)
    def key(r: GreedyIM.IMResult): Key = (r.seeds, java.lang.Double.doubleToLongBits(r.spread), r.spreadEvals)
    val serial = (0 until 2).map(i => key(run(i)))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val calls = (0 until 8).map { i =>
        val call: java.util.concurrent.Callable[Key] = () => key(run(i))
        pool.submit(call)
      }
      calls.zipWithIndex.foreach { case (f, i) => assert(f.get() == serial(i % 2), s"call $i") }
    } finally pool.shutdown()
  }

  test("batched CELF returns the one-at-a-time CELF's seeds, spread bits and evaluation count") {
    val processors = Runtime.getRuntime.availableProcessors
    type Key = (Seq[Int], Long, Long)
    def key(r: GreedyIM.IMResult): Key = (r.seeds, java.lang.Double.doubleToLongBits(r.spread), r.spreadEvals)
    for (graph <- 0 until 8) {
      // from fewer nodes than one batch to several batches
      val g = TestGraphs.random(70 + graph, n = 6 + 13 * graph, maxEdges = 4 * (6 + 13 * graph))
      val probs = g.mixedProbs(TestGraphs.randomGamma(graph, 2))
      val bounds = Seq(
        "plain" -> None,
        "all n" -> Some(Array.fill(g.n)(g.n.toDouble)),
        "local" -> Some(Bounds.localUB(g, probs, Bounds.precomputedUB(g), 3).map(_ * 1.05)))
      for ((name, ub) <- bounds; k <- Seq(1, 3, g.n); r <- Seq(1, math.max(1, processors - 1), 37)) {
        val expected = key(TestGraphs.sequentialCelf(g, probs, k, r, 5, ub))
        assert(key(GreedyIM.celf(g, probs, k, r, 5, ub)) == expected, s"graph=$graph bound=$name k=$k R=$r")
      }
    }
  }

  test("CELF rejects k outside 1..n") {
    val g = TestGraphs.random(62, n = 5)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val ub = Some(Array.fill(g.n)(g.n.toDouble))
    for (initialUpper <- Seq(None, ub); k <- Seq(0, -1, 6)) {
      intercept[IllegalArgumentException] { GreedyIM.celf(g, probs, k, 20, 5, initialUpper) }
    }
  }

  test("CELF rejects initial bounds that are not one per node") {
    val g = TestGraphs.random(63, n = 5)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    for (len <- Seq(0, g.n - 1, g.n + 1)) {
      val ub = Some(Array.fill(len)(g.n.toDouble))
      intercept[IllegalArgumentException] { GreedyIM.celf(g, probs, 2, 20, 5, ub) }
    }
  }

  test("CELF rejects initial bounds that hold NaN") {
    val g = TestGraphs.random(64, n = 5)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    for (at <- Seq(0, 2, g.n - 1)) {
      val ub = Array.fill(g.n)(g.n.toDouble)
      ub(at) = Double.NaN
      intercept[IllegalArgumentException] { GreedyIM.celf(g, probs, 2, 20, 5, Some(ub)) }
    }
  }

  test("CelfQueue dequeues what mutable.PriorityQueue dequeues, ties included, and staleTop takes the best stale entries") {
    val batchWidth = 4 * Runtime.getRuntime.availableProcessors
    val pool = Array(-0.0, 0.0, 1.0, 2.5, 7.0)
    type Entry = (Double, Int, Int)
    def bits(e: Entry): (Long, Int, Int) = (java.lang.Double.doubleToLongBits(e._1), e._2, e._3)
    for (n <- Seq(1, 2, 7, batchWidth - 1, batchWidth, batchWidth + 1, 10 * batchWidth); trial <- 0 until 12) {
      val rnd = new java.util.Random(1000L * n + trial)
      // at most 4 distinct values, so most comparisons are ties
      val distinct = new scala.util.Random(rnd).shuffle(pool.toSeq).take(1 + rnd.nextInt(4))
      def value(): Double = distinct(rnd.nextInt(distinct.length))
      val queue = new CelfQueue(n)
      val pq = mutable.PriorityQueue.empty[Entry](Ordering.by[Entry, Double](_._1))
      (0 until n).foreach { u =>
        val v = value()
        queue.enqueue(v, u, -1)
        pq.enqueue((v, u, -1))
      }
      val out = mutable.ArrayBuffer.empty[Int]
      var step = 0
      while (pq.nonEmpty || out.nonEmpty) {
        val where = s"n=$n trial=$trial step=$step"
        if (pq.nonEmpty && (out.isEmpty || rnd.nextInt(3) > 0)) {
          val expected = pq.dequeue()
          assert(queue.nonEmpty, where)
          assert(bits((queue.headValue, queue.headNode, queue.headRound)) == bits(expected), where)
          queue.dequeue()
          if (step < 3 * n) out += expected._2
        } else {
          val u = out.remove(rnd.nextInt(out.length))
          val e = (value(), u, rnd.nextInt(3))
          queue.enqueue(e._1, e._2, e._3)
          pq.enqueue(e)
        }
        if (rnd.nextInt(4) == 0) {
          // staleTop against a sort of the eligible entries by value
          val round = rnd.nextInt(3)
          val memoRound = Array.fill(n)(if (rnd.nextInt(4) == 0) round else -1)
          val from = 1 + rnd.nextInt(batchWidth)
          val batch = new Array[Int](from + batchWidth)
          val filled = queue.staleTop(round, memoRound, batch, from)
          val eligible = pq.iterator.filter(e => e._3 != round && memoRound(e._2) != round).toSeq
          val valueOf = pq.iterator.map(e => e._2 -> e._1).toMap
          val picked = batch.slice(from, filled).toSeq
          assert(picked.distinct == picked && picked.forall(eligible.map(_._2).toSet), where)
          assert(picked.map(valueOf) == eligible.map(_._1).sortBy(-_).take(batchWidth), where)
        }
        step += 1
      }
      assert(!queue.nonEmpty)
    }
  }

  test("batched CELF returns the one-at-a-time CELF's answer on a tie-heavy graph of many batches") {
    type Key = (Seq[Int], Long, Long)
    def key(r: GreedyIM.IMResult): Key = (r.seeds, java.lang.Double.doubleToLongBits(r.spread), r.spreadEvals)
    // 320 nodes, two out-edges each at one probability: many equal marginals
    val n = 320
    val rnd = new java.util.Random(90)
    val pairs = mutable.LinkedHashSet.empty[(Int, Int)]
    for (u <- 0 until n; _ <- 0 until 2) {
      val v = rnd.nextInt(n)
      if (v != u) pairs += ((u, v))
    }
    val g = CompactGraph.fromEdgeSeq(n, 1, pairs.toSeq.map { case (u, v) => (u, v, Array(0.3)) })
    val probs = g.mixedProbs(Array(1.0))
    for (ub <- Seq(Some(Array.fill(n)(n.toDouble)), None); r <- Seq(1, 3)) {
      val expected = key(TestGraphs.sequentialCelf(g, probs, 5, r, 5, ub))
      assert(key(GreedyIM.celf(g, probs, 5, r, 5, ub)) == expected, s"bound=${ub.isDefined} R=$r")
    }
  }

  test("CELF rejects a non-positive sample count, also through best-effort KIM") {
    val g = TestGraphs.random(60, n = 6)
    val gamma = Array(0.5, 0.5)
    intercept[IllegalArgumentException] { GreedyIM.celf(g, g.mixedProbs(gamma), 1, 0, 5) }
    intercept[IllegalArgumentException] {
      BestEffortKIM.queryGamma(g, Bounds.precomputedUB(g), gamma, 1, BestEffortKIM.Config(numSamples = 0))
    }
  }

  test("topIndividual returns k distinct users ranked by solo spread") {
    val g = TestGraphs.random(59, n = 10)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val r = GreedyIM.topIndividual(g, probs, 3, 200, 5)
    assert(r.seeds.size == 3 && r.seeds.distinct.size == 3)
    val solo = (0 until g.n).map(u => u -> SpreadEstimator.mcSpread(g, probs, Seq(u), 200, 5)).toMap
    assert(solo(r.seeds.head) == (0 until g.n).map(solo).max)
  }

  test("topIndividual can be worse than greedy when influence overlaps") {
    // Two hubs covering the same audience vs greedy picking complementary
    // seeds: 0 and 1 both point at {2,3,4}; 5 points at {6,7}.
    val g = TestGraphs.single(8,
      (0, 2, 0.9), (0, 3, 0.9), (0, 4, 0.9),
      (1, 2, 0.9), (1, 3, 0.9), (1, 4, 0.9),
      (5, 6, 0.8), (5, 7, 0.8))
    val probs = g.mixedProbs(Array(1.0))
    val greedy = GreedyIM.celf(g, probs, 2, 500, 5)
    val top = GreedyIM.topIndividual(g, probs, 2, 500, 5)
    assert(top.seeds.toSet == Set(0, 1))
    assert(greedy.seeds.toSet == Set(0, 5) || greedy.seeds.toSet == Set(1, 5))
    assert(greedy.spread > top.spread)
  }

  test("topDegree ranks by out-degree") {
    val g = TestGraphs.single(5, (0, 1, 0.1), (0, 2, 0.1), (0, 3, 0.1), (1, 2, 0.1))
    assert(GreedyIM.topDegree(g, 2) == Seq(0, 1))
  }
}
