package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

import scala.util.Random

class StatsSpec extends AnyFunSuite with PropHelper {

  // ---- normal quantile ----

  test("zAlpha(0.05) is the classic 1.96") {
    assert(math.abs(Stats.zAlpha(0.05) - 1.959964) < 1e-4)
  }

  test("zAlpha(0.01) is 2.5758") {
    assert(math.abs(Stats.zAlpha(0.01) - 2.575829) < 1e-4)
  }

  test("zAlpha(0.10) is 1.6449") {
    assert(math.abs(Stats.zAlpha(0.10) - 1.644854) < 1e-4)
  }

  test("normalQuantile(0.5) is 0") {
    assert(math.abs(Stats.normalQuantile(0.5)) < 1e-9)
  }

  test("normalQuantile handles extreme tails") {
    assert(Stats.normalQuantile(1e-10) < -6)
    assert(Stats.normalQuantile(1 - 1e-10) > 6)
  }

  test("normalQuantile rejects p outside (0,1)") {
    intercept[IllegalArgumentException](Stats.normalQuantile(0.0))
    intercept[IllegalArgumentException](Stats.normalQuantile(1.0))
  }

  test("property: quantile is antisymmetric around 0.5") {
    checkProp(Prop.forAll(Gen.choose(0.001, 0.999)) { p =>
      math.abs(Stats.normalQuantile(p) + Stats.normalQuantile(1 - p)) < 1e-6
    })
  }

  test("property: quantile is monotone") {
    checkProp(Prop.forAll(Gen.choose(0.001, 0.998), Gen.choose(0.0005, 0.001)) { (p, d) =>
      Stats.normalQuantile(p + d) >= Stats.normalQuantile(p)
    })
  }

  // ---- mean / variance ----

  test("mean of known values") {
    assert(Stats.mean(Seq(1.0, 2.0, 3.0, 4.0)) == 2.5)
  }

  test("mean of empty sequence rejects") {
    intercept[IllegalArgumentException](Stats.mean(Seq.empty))
  }

  test("sampleVariance of known values") {
    // var of {2,4,4,4,5,5,7,9} with n-1 denominator = 32/7
    assert(math.abs(Stats.sampleVariance(Seq(2, 4, 4, 4, 5, 5, 7, 9).map(_.toDouble)) - 32.0 / 7) < 1e-12)
  }

  test("sampleVariance of a constant sequence is 0") {
    assert(Stats.sampleVariance(Seq.fill(10)(3.14)) == 0.0)
  }

  test("sampleVariance of a single value is 0") {
    assert(Stats.sampleVariance(Seq(1.0)) == 0.0)
  }

  // ---- hypergeometric ----

  test("hypergeometric drawing everything returns all the good items") {
    val rng = new Random(1)
    (1 to 20).foreach { _ =>
      assert(Stats.hypergeometric(rng, total = 10, good = 4, draws = 10) == 4)
    }
  }

  test("hypergeometric with zero draws returns 0") {
    assert(Stats.hypergeometric(new Random(1), 10, 4, 0) == 0)
  }

  test("hypergeometric with all-good population returns draws") {
    val rng = new Random(2)
    assert(Stats.hypergeometric(rng, 8, 8, 5) == 5)
  }

  test("property: hypergeometric respects support bounds") {
    val gen = for {
      total <- Gen.choose(1, 50)
      good  <- Gen.choose(0, total)
      draws <- Gen.choose(0, total)
      seed  <- Gen.choose(0L, 10000L)
    } yield (total, good, draws, seed)
    checkProp(Prop.forAll(gen) { case (total, good, draws, seed) =>
      val x = Stats.hypergeometric(new Random(seed), total, good, draws)
      x >= math.max(0, draws - (total - good)) && x <= math.min(draws, good)
    })
  }

  test("hypergeometric mean matches draws*good/total") {
    val rng = new Random(3)
    val n = 20000
    val mean = (1 to n).map(_ => Stats.hypergeometric(rng, 20, 8, 5)).sum.toDouble / n
    assert(math.abs(mean - 5.0 * 8 / 20) < 0.05)
  }

  test("hypergeometric rejects inconsistent parameters") {
    intercept[IllegalArgumentException](Stats.hypergeometric(new Random(1), 5, 6, 1))
    intercept[IllegalArgumentException](Stats.hypergeometric(new Random(1), 5, 1, 6))
  }

  // ---- cumulative weights ----

  test("CumulativeWeights total") {
    assert(new CumulativeWeights(Array(1L, 2L, 3L)).total == 6L)
  }

  test("CumulativeWeights rejects non-positive weights") {
    intercept[IllegalArgumentException](new CumulativeWeights(Array(1L, 0L)))
  }

  test("CumulativeWeights rejects empty") {
    intercept[IllegalArgumentException](new CumulativeWeights(Array.empty[Long]))
  }

  test("CumulativeWeights single weight always draws index 0") {
    val cw = new CumulativeWeights(Array(7L))
    val rng = new Random(4)
    assert((1 to 100).forall(_ => cw.draw(rng) == 0))
  }

  test("CumulativeWeights draw frequencies are proportional to weights") {
    val cw = new CumulativeWeights(Array(1L, 9L, 90L))
    val rng = new Random(5)
    val n = 50000
    val counts = new Array[Int](3)
    (1 to n).foreach(_ => counts(cw.draw(rng)) += 1)
    assert(math.abs(counts(0).toDouble / n - 0.01) < 0.005)
    assert(math.abs(counts(1).toDouble / n - 0.09) < 0.01)
    assert(math.abs(counts(2).toDouble / n - 0.90) < 0.01)
  }

  // ---- appendable cumulative weights ----

  /** Weights split into an initial array and a sequence of appends. */
  private val appendsGen = for {
    ws    <- Gen.nonEmptyListOf(Gen.choose(1L, 1000L))
    first <- Gen.choose(1, ws.size)
    seed  <- Gen.choose(0L, 1000000L)
  } yield (ws, first, seed)

  test("property: an appended index draws exactly what a fresh one draws") {
    checkProp(Prop.forAll(appendsGen) { case (ws, first, seed) =>
      val grown = new CumulativeWeights(ws.take(first).toArray)
      ws.drop(first).foreach(grown.append)
      val fresh = new CumulativeWeights(ws.toArray)
      val (r1, r2) = (new Random(seed), new Random(seed))
      (1 to 50).forall(_ => grown.draw(r1) == fresh.draw(r2))
    })
  }

  test("property: total tracks the sum of the weights appended so far") {
    checkProp(Prop.forAll(appendsGen) { case (ws, first, _) =>
      val cw = new CumulativeWeights(ws.take(first).toArray)
      cw.total == ws.take(first).sum &&
        (first until ws.size).forall { i => cw.append(ws(i)); cw.total == ws.take(i + 1).sum }
    })
  }

  test("CumulativeWeights draws stay inside the filled prefix") {
    // 1 + 5 appends leave spare capacity behind the last filled weight
    val cw = new CumulativeWeights(Array(1L))
    Seq(2L, 3L, 4L, 5L, 1000L).foreach(cw.append)
    val rng = new Random(6)
    val draws = (1 to 20000).map(_ => cw.draw(rng))
    assert(draws.forall(i => i >= 0 && i < 6))
    assert(draws.count(_ == 5) > 19000)
  }

  test("CumulativeWeights rejects appending a non-positive weight") {
    val cw = new CumulativeWeights(Array(3L))
    Seq(0L, -2L).foreach { w =>
      val e = intercept[IllegalArgumentException](cw.append(w))
      assert(e.getMessage.contains("at 1"))
    }
    // nothing was appended: the single weight still takes every draw
    val rng = new Random(7)
    assert(cw.total == 3L && (1 to 100).forall(_ => cw.draw(rng) == 0))
  }
}
