package repro.core

/** Stratification of entity clusters (§5.3).
  *
  * `sizeStrata` implements the paper's Size Stratification: cluster-size
  * boundaries from the Dalenius–Hodges cumulative √F rule, then clusters are
  * partitioned by size. `oracleStrata` stratifies directly by the true entity
  * accuracy (only possible with ground-truth labels — the paper's lower-bound
  * reference).
  */
object Stratification {

  /** Cumulative √F boundaries over a histogram of a discrete signal.
    *
    * @param values sorted distinct signal values with their frequencies
    * @param h      number of strata
    * @return upper-inclusive boundaries; value v belongs to the first stratum
    *         whose boundary >= v. Length <= h (fewer if values are few).
    */
  def cumRootFBoundaries(values: Seq[(Double, Long)], h: Int): Seq[Double] = {
    require(h >= 1, "need at least one stratum")
    require(values.nonEmpty, "empty histogram")
    val sorted = values.sortBy(_._1)
    val roots  = sorted.map { case (_, f) => math.sqrt(f.toDouble) }
    val total  = roots.sum
    val step   = total / h
    val bounds = Seq.newBuilder[Double]
    var acc    = 0.0
    var nextCut = step
    var k      = 1
    for (((v, _), r) <- sorted.zip(roots)) {
      acc += r
      if (acc >= nextCut - 1e-12 && k < h) {
        bounds += v
        k += 1
        nextCut = step * k
      }
    }
    bounds += sorted.last._1 // final stratum always covers the max
    bounds.result().distinct
  }

  /** Partition clusters by a per-cluster signal against boundaries; each
    * stratum is the sub-population of its clusters.
    */
  def partition(kg: KGSummary, signal: Cluster => Double, bounds: Seq[Double]): Seq[KGSummary] = {
    val sortedBounds = bounds.sorted
    val groups = kg.clusters.groupBy { c =>
      val v = signal(c)
      sortedBounds.indexWhere(v <= _) match {
        case -1 => sortedBounds.size - 1 // above the last boundary: top stratum
        case i  => i
      }
    }
    groups.toSeq.sortBy(_._1).map { case (_, cs) => KGSummary(cs) }
  }

  /** Size Stratification: cum √F on the cluster-size histogram. */
  def sizeStrata(kg: KGSummary, h: Int): Seq[KGSummary] = {
    val hist = kg.clusters.groupBy(_.size).map { case (s, cs) => (s.toDouble, cs.length.toLong) }.toSeq
    partition(kg, _.size.toDouble, cumRootFBoundaries(hist, h))
  }

  /** Oracle Stratification: cum √F on the (discretized) true cluster accuracy. */
  def oracleStrata(kg: KGSummary, h: Int): Seq[KGSummary] = {
    def disc(c: Cluster): Double = math.round(c.accuracy * 20) / 20.0
    val hist = kg.clusters.groupBy(disc).map { case (a, cs) => (a, cs.length.toLong) }.toSeq
    partition(kg, disc, cumRootFBoundaries(hist, h))
  }

  /** Triple weight W_h of each stratum (sums to 1). */
  def weights(strata: Seq[KGSummary]): Seq[Double] = {
    val m = strata.map(_.numTriples).sum.toDouble
    strata.map(_.numTriples / m)
  }
}
