package repro.evolve

import repro.core._

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Result of evaluating one evolving-KG snapshot. Cost covers only the *new*
  * annotations this round (previously annotated samples are free to reuse).
  */
final case class SnapshotResult(estimate: Double,
                                moe: Double,
                                newEntities: Int,
                                newTriples: Long,
                                costSeconds: Double,
                                converged: Boolean) {
  def costHours: Double = costSeconds / 3600.0
}

/** Incremental evaluation on evolving KGs (§6): RS (reservoir, Algorithm 1),
  * SS (stratified, Algorithm 2) and the fresh-TWCS Baseline.
  *
  * All three evaluators consume update batches as arrays of [[Cluster]]s
  * (each Δ_e is treated as a new, independent cluster — §6.1) and share the
  * second-stage size m and the framework config.
  */
object IncrementalEval {

  private def newCost(cfg: EvalConfig, entities: Int, triples: Long): Double =
    cfg.cost.seconds(entities.toLong, triples)

  /** Draw TWCS batches from `kg`, appending within-draw sample means to
    * `values` and charging `tracker`, until `stop()` or the cost cap.
    */
  /** @param minTriples CLT floor on annotated triples before `stop` may fire;
    *                    pass 0 for incremental Δ strata — Algorithm 2's stop
    *                    rule is on the *combined* MoE, and the base stratum
    *                    already carries a CLT-sized sample.
    */
  private def twcsBatches(kg: KGSummary, m: Int, cfg: EvalConfig, rng: Random,
                          values: ArrayBuffer[Double], tracker: CostTracker,
                          minDraws: Int, minTriples: Long, stop: () => Boolean): Unit = {
    var done = false
    while (!done) {
      var i = 0
      while (i < cfg.clusterBatch) {
        val d = LocalSamplers.twcsDraw(kg, m, rng)
        tracker.record(d.cluster.id, d.cluster.size, d.annotated)
        values += d.sampleMean
        i += 1
      }
      done = (values.size >= minDraws && tracker.triples >= minTriples && stop()) ||
             tracker.seconds >= cfg.maxCostSeconds
    }
  }

  // ==================================================================
  // Baseline: independent static TWCS on every snapshot
  // ==================================================================

  /** Re-evaluates each snapshot from scratch; pays full cost every time. */
  final class BaselineEvaluator(m: Int, cfg: EvalConfig, rng: Random) {
    private var pool: ClusterStore = _

    def initialize(base: KGSummary): Unit = { pool = new ClusterStore(base) }

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      pool.append(batch)
      val r = StaticEval.twcs(pool, m, cfg, rng)
      SnapshotResult(r.estimate, r.moe, r.entities, r.triples, r.costSeconds, r.converged)
    }
  }

  // ==================================================================
  // RS: Reservoir Incremental Evaluation (§6.1, Algorithm 1)
  // ==================================================================

  /** Maintains a weighted reservoir of annotated cluster draws. Per update
    * batch: offer every new cluster (annotating those that enter), then — if
    * the MoE over the reservoir exceeds ε — top up with fresh WCS draws from
    * the current KG (the paper's "run Static Evaluation on G+Δ" step).
    *
    * @param capacity reservoir size |R| (first-stage sample size from the
    *                 initial static evaluation)
    * @param initBias added to the recorded sample means of the initial
    *                 reservoir entries (clamped to [0,1]) — fault-injection
    *                 for the Fig 9 over-/under-estimation experiment; decays
    *                 as reservoir turnover replaces the biased entries
    */
  final class ReservoirEvaluator(capacity: Int, m: Int, cfg: EvalConfig, rng: Random,
                                 initBias: Double = 0.0) {
    /** Payload per reservoir entry: (recorded sample mean, #triples annotated). */
    private val reservoir = new WeightedReservoir[(Double, Int)](capacity)
    private var pool: ClusterStore = _

    /** Build the initial reservoir over the base KG (annotations charged to
      * the static evaluation that precedes the evolving phase, not to any
      * update round).
      */
    def initialize(base: KGSummary): Unit = {
      pool = new ClusterStore(base)
      base.clusters.foreach { c =>
        reservoir.offer(c, rng) {
          val d = LocalSamplers.secondStage(c, m, rng)
          (math.max(0.0, math.min(1.0, d.sampleMean + initBias)), d.annotated)
        }
      }
    }

    def totalInsertions: Long = reservoir.totalInsertions

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      pool.append(batch)
      var newEntities = 0
      var newTriples  = 0L
      batch.foreach { c =>
        reservoir.offer(c, rng) {
          val d = LocalSamplers.secondStage(c, m, rng)
          newEntities += 1
          newTriples  += d.annotated
          (d.sampleMean, d.annotated)
        }
      }
      def cost: Double = newCost(cfg, newEntities, newTriples)
      val z = cfg.z
      var values = reservoir.entries.map(_.payload._1).toVector
      var est = Estimators.meanOfDraws(values, z)
      // Top up from the current KG if the reservoir alone misses the MoE bar,
      // within the annotation budget.
      while (est.moe > cfg.eps && cost < cfg.maxCostSeconds) {
        var i = 0
        while (i < cfg.clusterBatch) {
          val d = LocalSamplers.twcsDraw(pool, m, rng)
          newEntities += 1
          newTriples  += d.annotated
          values = values :+ d.sampleMean
          i += 1
        }
        est = Estimators.meanOfDraws(values, z)
      }
      SnapshotResult(est.value, est.moe, newEntities, newTriples, cost, est.moe <= cfg.eps)
    }
  }

  // ==================================================================
  // SS: Stratified Incremental Evaluation (§6.2, Algorithm 2)
  // ==================================================================

  /** One stratum's reusable evaluation state. */
  private final case class StratumState(triples: Long, values: ArrayBuffer[Double])

  /** Each update batch Δ^i becomes a new stratum; earlier strata estimates
    * (G, Δ^1, …, Δ^{i-1}) are reused verbatim and only the newest stratum is
    * sampled until the combined MoE meets ε.
    *
    * @param initBias added to the base-stratum draw values after the initial
    *                 static evaluation — fault-injection for Fig 9
    */
  final class StratifiedEvaluator(m: Int, cfg: EvalConfig, rng: Random,
                                  initBias: Double = 0.0) {
    private val strata = ArrayBuffer.empty[StratumState]

    /** Run the initial static evaluation on the base KG, keeping its draws. */
    def initialize(base: KGSummary): Unit = {
      val values  = ArrayBuffer.empty[Double]
      val tracker = new CostTracker(cfg.cost)
      twcsBatches(base, m, cfg, rng, values, tracker, cfg.minClusterDraws, cfg.minTriples,
        () => Estimators.meanOfDraws(values.toSeq, cfg.z).moe <= cfg.eps)
      val biased = values.map(v => math.max(0.0, math.min(1.0, v + initBias)))
      strata += StratumState(base.numTriples, biased)
    }

    private def combined(): Estimate = {
      val total = strata.map(_.triples).sum.toDouble
      val parts = strata.map { s =>
        Estimators.Stratum(s.triples / total, Stats.mean(s.values.toSeq),
          Estimators.varOfMean(s.values.toSeq))
      }
      Estimators.stratified(parts.toSeq, cfg.z)
    }

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      val delta   = KGSummary(batch)
      val values  = ArrayBuffer.empty[Double]
      val tracker = new CostTracker(cfg.cost)
      strata += StratumState(delta.numTriples, values)
      // A handful of draws so the new stratum has a usable sample variance
      // (2 agreeing draws would stop on a spurious zero), then batches until
      // the *combined* MoE satisfies ε.
      twcsBatches(delta, m, cfg, rng, values, tracker, 5, 0L,
        () => combined().moe <= cfg.eps)
      val est = combined()
      SnapshotResult(est.value, est.moe, tracker.entities, tracker.triples,
        tracker.seconds, est.moe <= cfg.eps)
    }
  }
}
