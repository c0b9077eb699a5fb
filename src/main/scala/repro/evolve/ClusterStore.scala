package repro.evolve

import repro.core.{Cluster, CumulativeWeights, KGSummary, SizeWeighted}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The clusters of an evolving KG: the base plus every update batch so far.
  *
  * The KG only grows, so the store is append-only: `append` costs amortised
  * O(|Δ|) and a draw ∝ size costs O(log |G|), with no rebuild of the weight
  * index per update.
  */
final class ClusterStore(base: KGSummary) extends SizeWeighted {
  private val clusters = ArrayBuffer.from(base.clusters)
  // A fresh index, not base.sizeWeights: appends must not grow the base's.
  private val weights  = new CumulativeWeights(base.clusters.map(_.size.toLong))

  def append(batch: Array[Cluster]): Unit = {
    clusters ++= batch
    batch.foreach(c => weights.append(c.size))
  }

  def numTriples: Long = weights.total

  def drawBySize(rng: Random): Cluster = clusters(weights.draw(rng))
}
