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

  private def snapshot(r: EvalResult): SnapshotResult =
    SnapshotResult(r.estimate, r.moe, r.entities, r.triples, r.costSeconds, r.converged)

  // ==================================================================
  // Baseline: independent static TWCS on every snapshot
  // ==================================================================

  /** Re-evaluates each snapshot from scratch; pays full cost every time. */
  final class BaselineEvaluator(m: Int, cfg: EvalConfig, rng: Random) {
    private var pool: ClusterStore = _

    def initialize(base: KGSummary): Unit = { pool = new ClusterStore(base) }

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      pool.append(batch)
      snapshot(StaticEval.twcs(pool, m, cfg, rng))
    }
  }

  // ==================================================================
  // RS: Reservoir Incremental Evaluation (§6.1, Algorithm 1)
  // ==================================================================

  /** Maintains a weighted reservoir of annotated cluster draws. Per update
    * batch: offer every new cluster (annotating those that enter), then — if
    * the MoE over the reservoir exceeds ε — top up with fresh TWCS draws from
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
    /** Payload per reservoir entry: its recorded sample mean. */
    private val reservoir = new WeightedReservoir[Double](capacity)
    private var pool: ClusterStore = _

    /** Build the initial reservoir over the base KG (annotations charged to
      * the static evaluation that precedes the evolving phase, not to any
      * update round).
      */
    def initialize(base: KGSummary): Unit = {
      pool = new ClusterStore(base)
      base.clusters.foreach { c =>
        reservoir.offer(c, rng) {
          math.max(0.0, math.min(1.0, LocalSamplers.secondStage(c, m, rng).sampleMean + initBias))
        }
      }
    }

    def totalInsertions: Long = reservoir.totalInsertions

    /** Insertions and top-up draws are charged to one tracker, so a cluster
      * drawn twice in a round costs its entity once (Eq 4).
      */
    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      pool.append(batch)
      val tracker = new CostTracker(cfg.cost)
      batch.foreach { c =>
        reservoir.offer(c, rng) {
          val d = LocalSamplers.secondStage(c, m, rng)
          tracker.record(c.id, c.size, d.annotated)
          d.sampleMean
        }
      }
      // Top up from the current KG if the reservoir alone misses the MoE bar,
      // within the annotation budget.
      val topUp = StaticEval.twcsStratum(pool, m, rng)
      topUp.values ++= reservoir.entries.map(_.payload)
      snapshot(EvalLoop.run(Nil, Seq(topUp), 0, 0L, cfg, tracker))
    }
  }

  // ==================================================================
  // SS: Stratified Incremental Evaluation (§6.2, Algorithm 2)
  // ==================================================================

  /** Each update batch Δ^i becomes a new stratum; earlier strata estimates
    * (G, Δ^1, …, Δ^{i-1}) are reused verbatim and only the newest stratum is
    * sampled until the combined MoE meets ε.
    *
    * @param initBias added to the base-stratum draw values after the initial
    *                 static evaluation — fault-injection for Fig 9
    */
  final class StratifiedEvaluator(m: Int, cfg: EvalConfig, rng: Random,
                                  initBias: Double = 0.0) {
    private val strata = ArrayBuffer.empty[EvalLoop.Stratum]

    /** Run the initial static evaluation on the base KG, keeping its draws. */
    def initialize(base: KGSummary): Unit = {
      val s = StaticEval.twcsStratum(base, m, rng)
      StaticEval.run(s, cfg)
      s.values.mapInPlace(v => math.max(0.0, math.min(1.0, v + initBias)))
      strata += s
    }

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      val s = StaticEval.twcsStratum(KGSummary(batch), m, rng)
      // A first batch so the new stratum has a usable sample variance
      // (2 agreeing draws would stop on a spurious zero), then batches until
      // the *combined* MoE satisfies ε. No triple floor: Algorithm 2's stop
      // rule is on the combined MoE, and the base stratum already carries a
      // CLT-sized sample.
      val r = EvalLoop.run(strata.toSeq, Seq(s), cfg.clusterBatch, 0L, cfg,
        new CostTracker(cfg.cost))
      strata += s
      snapshot(r)
    }
  }
}
