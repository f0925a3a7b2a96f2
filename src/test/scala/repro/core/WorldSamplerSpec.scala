package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Statistical and determinism properties of the shared coin source. */
class WorldSamplerSpec extends AnyFunSuite {

  test("u01 is deterministic") {
    assert(WorldSampler.u01(1, 2, 3) == WorldSampler.u01(1, 2, 3))
  }

  test("u01 stays in [0, 1)") {
    for (s <- 0 until 50; e <- 0 until 50) {
      val x = WorldSampler.u01(99, s, e)
      assert(x >= 0.0 && x < 1.0)
    }
  }

  test("changing any key component changes the draw") {
    val base = WorldSampler.u01(1, 2, 3)
    assert(base != WorldSampler.u01(2, 2, 3))
    assert(base != WorldSampler.u01(1, 3, 3))
    assert(base != WorldSampler.u01(1, 2, 4))
  }

  test("mean is close to 1/2") {
    val n = 20000
    val mean = (0 until n).map(i => WorldSampler.u01(7, i / 100, i % 100)).sum / n
    assert(math.abs(mean - 0.5) < 0.02)
  }

  test("variance is close to 1/12") {
    val n = 20000
    val xs = (0 until n).map(i => WorldSampler.u01(7, i / 100, i % 100))
    val mean = xs.sum / n
    val v = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(v - 1.0 / 12) < 0.01)
  }

  test("decile histogram is flat") {
    val n = 50000
    val counts = new Array[Int](10)
    (0 until n).foreach { i =>
      counts((WorldSampler.u01(13, i, i * 31 + 7) * 10).toInt) += 1
    }
    counts.foreach(c => assert(math.abs(c - n / 10.0) < n * 0.01))
  }

  test("no correlation between consecutive edges in a sample") {
    val n = 10000
    val xs = (0 until n).map(e => WorldSampler.u01(5, 0, e))
    val pairs = xs.zip(xs.tail)
    val mx = xs.sum / n
    val cov = pairs.map { case (a, b) => (a - mx) * (b - mx) }.sum / pairs.length
    assert(math.abs(cov) < 0.005)
  }

  test("uniformInt is in range and deterministic") {
    for (j <- 0 until 200) {
      val x = WorldSampler.uniformInt(3, j, 17)
      assert(x >= 0 && x < 17)
      assert(x == WorldSampler.uniformInt(3, j, 17))
    }
  }

  test("uniformInt covers all values roughly uniformly") {
    val n = 10000; val k = 8
    val counts = new Array[Int](k)
    (0 until n).foreach(j => counts(WorldSampler.uniformInt(21, j, k)) += 1)
    counts.foreach(c => assert(c > n / k * 0.8 && c < n / k * 1.2))
  }

  test("distinct seeds give effectively independent streams") {
    val n = 5000
    val a = (0 until n).map(e => WorldSampler.u01(101, 0, e))
    val b = (0 until n).map(e => WorldSampler.u01(102, 0, e))
    val ma = a.sum / n; val mb = b.sum / n
    val cov = a.zip(b).map { case (x, y) => (x - ma) * (y - mb) }.sum / n
    assert(math.abs(cov) < 0.005)
  }

  test("ranges cover every sample once, in contiguous ranges ascending by chunk") {
    val cores = Runtime.getRuntime.availableProcessors
    for (r <- Seq(1, math.max(1, cores - 1), cores, cores + 1, 37, 200).distinct) {
      val parts = WorldSampler.chunks(r)
      assert(parts == math.min(r, cores), s"r=$r")
      val seen = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Int, Int)]
      val owner = new java.util.concurrent.atomic.AtomicIntegerArray(r)
      WorldSampler.ranges(r, parts) { (p, from, until) =>
        seen.add((p, from, until))
        (from until until).foreach(s => owner.incrementAndGet(s))
      }
      val chunks = seen.toArray(Array.empty[(Int, Int, Int)]).sortBy(_._1).toSeq
      assert(chunks.map(_._1) == (0 until parts), s"r=$r")
      assert(chunks.head._2 == 0 && chunks.last._3 == r, s"r=$r")
      chunks.sliding(2).filter(_.length == 2).foreach(c => assert(c(0)._3 == c(1)._2, s"r=$r $c"))
      chunks.foreach { case (p, from, until) => assert(from < until, s"r=$r chunk=$p is empty") }
      assert((0 until r).forall(s => owner.get(s) == 1), s"r=$r")
    }
  }

  test("ranges rejects a chunk count outside 1..numSamples") {
    for ((r, parts) <- Seq((5, 0), (5, 6), (0, 1)))
      intercept[IllegalArgumentException](WorldSampler.ranges(r, parts)((_, _, _) => ()))
  }
}
