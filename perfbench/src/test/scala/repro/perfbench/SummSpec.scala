package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class SummSpec extends AnyFunSuite {

  test("the tail is the highest percentile with at least ten samples beyond it") {
    val xs = (1 to 1000).map(_.toDouble)
    // p99 is the 990th value with 10 beyond; p99.5 would leave only 5
    assert(Summ.tail(xs) == Some((99.0, 990.0)))
    assert(Summ.tail((1 to 100).map(_.toDouble)) == Some((90.0, 90.0)))
    assert(Summ.tail((1 to 20).map(_.toDouble)) == Some((50.0, 10.0)))
  }

  test("no tail is reported below twenty samples") {
    assert(Summ.tail((1 to 19).map(_.toDouble)).isEmpty)
  }

  test("the tail ignores input order") {
    val xs = scala.util.Random.shuffle((1 to 500).map(_.toDouble))
    assert(Summ.tail(xs) == Some((95.0, 475.0)))
  }

  test("median averages the middle pair") {
    assert(Summ.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Summ.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("coverage counts the intervals that contain the truth, ends included") {
    val xs = Seq(
      (0.90, 0.05, 0.92), // inside
      (0.90, 0.05, 0.95), // on the upper end
      (0.90, 0.05, 0.85), // on the lower end
      (0.90, 0.01, 0.95), // above
      (0.90, 0.00, 0.90)) // zero width, exact
    assert(Summ.coverage(xs) == 4.0 / 5)
    assert(!Summ.covers(0.99, 0.0, 0.989))
  }
}
