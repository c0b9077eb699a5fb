package repro.evolve

import repro.core.Cluster

import scala.collection.mutable
import scala.util.Random

/** Weighted reservoir sampling (Efraimidis–Spirakis A-Res, [14]).
  *
  * Each candidate cluster gets key u^(1/weight) with u ~ U(0,1) and weight =
  * cluster size; the reservoir keeps the `capacity` largest keys, which is a
  * size-weighted sample without replacement of everything offered so far —
  * exactly the first-stage TWCS sample the paper maintains on evolving KGs
  * (Algorithm 1).
  *
  * `attach` carries arbitrary per-entry payload (here: the sample mean of
  * the annotated second-stage draw), created only when a cluster actually
  * enters — that is the annotation cost RS pays.
  */
final class WeightedReservoir[A](capacity: Int) {
  import WeightedReservoir.Entry
  require(capacity >= 1)

  private val heap = mutable.PriorityQueue.empty[Entry[A]](Ordering.by(e => -e.key)) // min-heap
  private var inserted = 0L

  /** A-Res key for a cluster. */
  def keyFor(c: Cluster, rng: Random): Double = math.pow(rng.nextDouble(), 1.0 / c.size)

  /** Offer a cluster; `mkPayload` runs only on insertion (annotation cost).
    * Returns true iff the cluster entered the reservoir.
    */
  def offer(c: Cluster, rng: Random)(mkPayload: => A): Boolean = {
    val k = keyFor(c, rng)
    if (heap.size < capacity) {
      heap.enqueue(Entry(c, k, mkPayload)); inserted += 1; true
    } else if (k > heap.head.key) {
      heap.dequeue(); heap.enqueue(Entry(c, k, mkPayload)); inserted += 1; true
    } else false
  }

  def size: Int = heap.size
  /** Total insertions ever made (Prop 3 bounds this by O(|R|·log(N_j/N_i))). */
  def totalInsertions: Long = inserted
  def entries: Seq[Entry[A]] = heap.toSeq
}

object WeightedReservoir {
  /** One reservoir entry: the cluster, its A-Res key and its payload. */
  final case class Entry[A](cluster: Cluster, key: Double, payload: A)
}
