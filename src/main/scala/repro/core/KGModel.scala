package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import java.lang.ref.WeakReference
import java.util.WeakHashMap

import scala.util.Random

/** One entity cluster: all triples sharing a subject id.
  *
  * @param id   subject id
  * @param size M_i, number of triples in the cluster
  * @param tau  τ_i, number of *correct* triples in the cluster (ground truth)
  */
final case class Cluster(id: Long, size: Int, tau: Int) {
  require(size >= 1, s"empty cluster $id")
  require(tau >= 0 && tau <= size, s"cluster $id has tau=$tau outside [0,$size]")
  /** μ_i, cluster accuracy. */
  def accuracy: Double = tau.toDouble / size
}

/** A cluster population drawn with probability ∝ cluster size: what the
  * TWCS first stage needs of a KG, static or growing.
  */
trait SizeWeighted {
  /** M — total number of triples (the total weight). */
  def numTriples: Long
  /** One cluster, with replacement, P(c) = M_c / M. */
  def drawBySize(rng: Random): Cluster
}

/** Driver-side view of a KG for sampling designs: everything a sampler needs
  * is the list of clusters with (size, #correct). Individual triple draws
  * within a cluster are exact hypergeometric draws, so no per-triple state
  * is required (see DESIGN.md §3.4).
  */
final case class KGSummary(clusters: Array[Cluster]) extends SizeWeighted {
  require(clusters.nonEmpty, "empty KG")

  /** N — number of entity clusters. */
  val numClusters: Int = clusters.length
  private val (triples, correct) = {
    var m = 0L
    var t = 0L
    var i = 0
    while (i < clusters.length) { m += clusters(i).size; t += clusters(i).tau; i += 1 }
    (m, t)
  }
  /** M — total number of triples. */
  val numTriples: Long = triples
  /** True KG accuracy μ(G) = Σ τ_i / M. */
  val accuracy: Double = correct.toDouble / numTriples
  /** Mean cluster size M/N. */
  def meanClusterSize: Double = numTriples.toDouble / numClusters

  /** Weighted index over cluster sizes for draws ∝ M_i. */
  lazy val sizeWeights: CumulativeWeights = new CumulativeWeights(clusters.map(_.size.toLong))

  def drawBySize(rng: Random): Cluster = clusters(sizeWeights.draw(rng))
}

object KGSummary {

  /** Cluster summary as a DataFrame aggregation — the distributed half of the
    * workload. Input must have columns `subject` and `label` (0/1).
    * Output: (subject, size, tau).
    */
  def clusterSummaryDF(triples: DataFrame): DataFrame =
    triples.groupBy(col("subject"))
      .agg(count(lit(1)).as("size"), sum(col("label")).as("tau"))

  /** Summaries already collected, per DataFrame object (Datasets compare by
    * identity). Keys and values are both weak: a strong value would keep a
    * released KG's summary on the heap until the map next expunges its key.
    */
  private val memo = new WeakHashMap[DataFrame, WeakReference[KGSummary]]

  /** Collect the Spark cluster summary into the driver-side [[KGSummary]],
    * once per DataFrame object while its summary is still referenced: every
    * later call on the same DataFrame returns the same summary without a
    * Spark job. Fine for all KGs in this reproduction (≤ ~300K clusters).
    */
  def fromTriples(triples: DataFrame): KGSummary =
    memo.synchronized(Option(memo.get(triples)).flatMap(r => Option(r.get()))).getOrElse {
      val kg = KGSummary(clusterSummaryDF(triples).collect().map(r =>
        Cluster(r.getLong(0), r.getLong(1).toInt, r.getLong(2).toInt)))
      memo.synchronized(memo.put(triples, new WeakReference(kg)))
      kg
    }
}
