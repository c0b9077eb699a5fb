package repro.core

import scala.util.Random

/** Small statistics toolbox shared by all sampling designs.
  *
  * Everything here is deterministic given an explicit [[scala.util.Random]],
  * so Monte-Carlo experiments are reproducible from a seed.
  */
object Stats {

  /** Inverse standard-normal CDF (Acklam's rational approximation, |rel err| < 1.15e-9). */
  def normalQuantile(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"quantile defined on (0,1), got $p")
    // Coefficients from P. J. Acklam (2003).
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      -normalQuantile(1 - p)
    }
  }

  /** Two-sided Normal critical value z_{alpha/2}; e.g. alpha=0.05 -> 1.96. */
  def zAlpha(alpha: Double): Double = normalQuantile(1.0 - alpha / 2.0)

  /** Sample mean. */
  def mean(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of empty sequence")
    xs.sum / xs.size
  }

  /** Unbiased sample variance (n-1 denominator); 0 for n < 2. */
  def sampleVariance(xs: collection.Seq[Double]): Double = {
    val n = xs.size
    if (n < 2) 0.0
    else {
      val m = mean(xs)
      xs.map(x => (x - m) * (x - m)).sum / (n - 1)
    }
  }

  /** Draw from Hypergeometric(total, good, draws): number of "good" items in
    * `draws` taken without replacement from a population of `total` items of
    * which `good` are good. Sequential exact simulation; draws is small (<= m).
    */
  def hypergeometric(rng: Random, total: Int, good: Int, draws: Int): Int = {
    require(draws <= total && good <= total && draws >= 0 && good >= 0,
      s"bad hypergeometric params total=$total good=$good draws=$draws")
    var remTotal = total
    var remGood  = good
    var hits     = 0
    var i        = 0
    while (i < draws) {
      if (rng.nextDouble() * remTotal < remGood) { hits += 1; remGood -= 1 }
      remTotal -= 1
      i += 1
    }
    hits
  }
}

/** O(log N) weighted index: draws an index with probability weight(i)/sum(weights).
  * Used for with-replacement cluster draws proportional to cluster size.
  *
  * Append-only: `append` extends the prefix sums in amortised O(1), so an
  * index over a growing KG never needs a rebuild. Sums are exact integers, so
  * an index grown by appends draws exactly what a fresh one over the same
  * weights draws.
  */
final class CumulativeWeights(weights: Array[Long]) {
  require(weights.nonEmpty, "no weights")
  private var cum = new Array[Long](weights.length)
  private var n   = 0
  private var sum = 0L
  locally {
    var i = 0
    while (i < weights.length) { append(weights(i)); i += 1 }
  }

  /** Total weight. */
  def total: Long = sum

  /** Adds weight `w` after the last one. */
  def append(w: Long): Unit = {
    if (w <= 0) throw new IllegalArgumentException(s"non-positive weight at $n")
    if (n == cum.length) cum = java.util.Arrays.copyOf(cum, math.max(16, 2 * n))
    sum += w
    cum(n) = sum
    n += 1
  }

  /** Index i with P(i) = weights(i)/total. */
  def draw(rng: Random): Int = {
    val dart = (rng.nextDouble() * sum).toLong
    // first index whose cumulative weight exceeds the dart
    var lo = 0
    var hi = n - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) <= dart) lo = mid + 1 else hi = mid
    }
    lo
  }
}
