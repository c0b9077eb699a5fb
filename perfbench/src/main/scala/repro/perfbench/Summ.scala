package repro.perfbench

/** Order statistics for the reported timings. */
object Summ {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of nothing")
    xs.sum / xs.size
  }

  /** Percentiles tried for the tail, lowest first. */
  val TailLadder: Seq[Double] = Seq(50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)

  /** The tail: the highest percentile of [[TailLadder]] (nearest rank) with at
    * least ten samples beyond it, as (percentile, value); None below 20 samples.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] = {
    val s = xs.sorted
    val n = s.size
    TailLadder.reverse.iterator.map { p =>
      val rank = math.max(1, math.ceil(p / 100 * n - 1e-9).toInt)
      (p, rank)
    }.find { case (_, rank) => n - rank >= 10 }
      .map { case (p, rank) => (p, s(rank - 1)) }
  }

  /** Whether `[estimate − moe, estimate + moe]` contains `truth`. */
  def covers(estimate: Double, moe: Double, truth: Double): Boolean =
    estimate - moe <= truth && truth <= estimate + moe

  /** Share of (estimate, moe, truth) whose interval contains the truth. */
  def coverage(xs: Seq[(Double, Double, Double)]): Double = {
    require(xs.nonEmpty, "coverage of nothing")
    xs.count { case (e, m, t) => covers(e, m, t) }.toDouble / xs.size
  }
}
