package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.StaticEval
import repro.exp.Experiments

/** The static-mc cells are the Table 5 harness's evaluations, called directly. */
class HarnessEquivalenceSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .config("spark.sql.shuffle.partitions", "8")
    .config("spark.ui.enabled", false)
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("each Table 5 cell at seed 0 reproduces the harness's mean hours and estimate") {
    val ctx = new Ctx(spark, seed = 0, new Tracer, stats = None)
    val cells = StaticMc.setup(ctx).cells
    val (table5, _) = Experiments.table5(spark)
    assert(table5.size == 12)
    table5.foreach { case ((kg, design), st) =>
      val cell = cells.find(_.id == s"$kg.$design").get
      assert(cell.trials == st.trials)
      val mine = StaticEval.monteCarlo(cell.trials, cell.seed)(cell.run)
      assert(mine.meanCostHours == st.meanCostHours, s"$kg/$design")
      assert(mine.meanEstimate == st.meanEstimate, s"$kg/$design")
    }
  }
}
