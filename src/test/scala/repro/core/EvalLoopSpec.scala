package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

class EvalLoopSpec extends AnyFunSuite {

  private val kg: KGSummary = {
    val rng = new Random(7)
    KGSummary(Array.tabulate(300) { i =>
      val size = 1 + rng.nextInt(12)
      Cluster(i.toLong, size, (0 until size).count(_ => rng.nextDouble() < 0.8))
    })
  }
  private val cfg = EvalConfig()

  /** A TWCS stratum over `kg` that counts its draws. */
  private final class Counted(rng: Random) {
    var calls = 0
    val stratum = new EvalLoop.Stratum(kg.numTriples, () => {
      calls += 1
      val d = LocalSamplers.twcsDraw(kg, 5, rng)
      (d, d.sampleMean)
    })
  }

  test("one stratum gives exactly meanOfDraws over the same values") {
    (1 to 5).foreach { seed =>
      val s = new Counted(new Random(seed)).stratum
      val r = EvalLoop.run(Nil, Seq(s), cfg.clusterBatch, cfg.minTriples, cfg,
        new CostTracker(cfg.cost))
      val want = Estimators.meanOfDraws(s.values.toSeq, cfg.z)
      assert(r.estimate == want.value && r.moe == want.moe)
      assert(r.clusterDraws == s.values.size && r.converged)
    }
  }

  test("closed strata are never drawn and keep their values") {
    val closed = new Counted(new Random(1))
    closed.stratum.values ++= Seq.fill(50)(0.95) ++ Seq.fill(50)(0.85)
    val before = closed.stratum.values.toList
    val open = new Counted(new Random(2))
    val r = EvalLoop.run(Seq(closed.stratum), Seq(open.stratum), cfg.clusterBatch, 0L,
      cfg, new CostTracker(cfg.cost))
    assert(closed.calls == 0)
    assert(closed.stratum.values.toList == before)
    assert(open.calls == r.clusterDraws && r.clusterDraws >= 5)
  }

  test("a preloaded stratum already within the MoE makes no draw and charges nothing") {
    val c = new Counted(new Random(3))
    c.stratum.values ++= ArrayBuffer.fill(200)(0.9) ++ ArrayBuffer.fill(200)(0.8)
    val tracker = new CostTracker(cfg.cost)
    val r = EvalLoop.run(Nil, Seq(c.stratum), 0, 0L, cfg, tracker)
    assert(c.calls == 0 && r.clusterDraws == 0)
    assert(tracker.entities == 0 && tracker.seconds == 0.0)
    assert(r.converged && math.abs(r.estimate - 0.85) < 1e-12)
  }

  test("closed strata that alone keep the MoE above ε stop the run after its first batch") {
    // z²·W²·Var̂ = 1.96²·(1/2)²·(1/3)/4 ≈ 0.08 > ε² = 0.0025: no open draw can converge
    val closed = new Counted(new Random(4))
    closed.stratum.values ++= Seq(0.0, 1.0, 0.0, 1.0)
    val open = new Counted(new Random(5))
    val capped = cfg.copy(maxCostSeconds = 3600.0)
    val r = EvalLoop.run(Seq(closed.stratum), Seq(open.stratum), cfg.clusterBatch, 0L,
      capped, new CostTracker(cfg.cost))
    assert(r.clusterDraws == cfg.clusterBatch && open.calls == cfg.clusterBatch)
    assert(r.costSeconds < capped.maxCostSeconds)
    assert(!r.converged)
  }
}
