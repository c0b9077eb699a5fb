package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.{KGSummary, LocalSamplers}

import scala.util.Random

/** DataFrame implementations of the paper's sampling designs. Spark runs
  * only the work that grows with |G| (cluster summary, join, top-n); cluster
  * draws come from [[LocalSamplers]] on the driver, as in the Monte-Carlo.
  *
  * Input "triples" DataFrames must carry at least `subject` (long) and
  * `label` (0/1 int); extra columns (predicate, object) pass through.
  * Draw randomness is seeded so jobs are reproducible.
  */
object SparkSamplers {

  /** (subject, size, tau) per entity cluster — groupBy aggregation. */
  def clusterSummary(triples: DataFrame): DataFrame =
    KGSummary.clusterSummaryDF(triples)

  /** SRS of exactly n triples without replacement: the n smallest of a
    * uniform key per triple, which Spark plans as a per-partition top-n.
    */
  def srsTriples(triples: DataFrame, n: Long, seed: Long): DataFrame =
    triples
      .withColumn("__srs_r", rand(seed))
      .orderBy(col("__srs_r"))
      .limit(math.toIntExact(n))
      .drop("__srs_r")

  /** n with-replacement cluster draws with P(cluster i) = M_i/M, as (draw_id, subject). */
  def wcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw)

  /** n uniform (unweighted) cluster draws with replacement, as (draw_id, subject). */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.rcsDraw)

  /** n successive draws from `new Random(seed)` over the collected summary. */
  private def clusterDraws(triples: DataFrame, n: Int, seed: Long)
                          (draw: (KGSummary, Random) => LocalSamplers.ClusterDraw): DataFrame = {
    val kg  = KGSummary.fromTriples(triples)
    val rng = new Random(seed)
    val rows = (0 until n).map(k => (k.toLong, draw(kg, rng).cluster.id))
    triples.sparkSession.createDataFrame(rows).toDF("draw_id", "subject")
  }

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS/WCS. Duplicate first-stage draws of a cluster yield duplicate rows
    * on purpose — each draw is an independent Hansen–Hurwitz replicate.
    * The ≤ n draws are broadcast: a hint applies even with auto-broadcast off.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame =
    broadcast(draws).join(triples, Seq("subject"))

  /** TWCS sample: WCS first stage, then per draw an SRS of at most m triples
    * without replacement inside the cluster (window row_number over rand,
    * partitioned by draw so repeated clusters re-sample independently).
    */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame = {
    val draws = wcsClusterDraws(triples, n, seed)
    secondStage(draws, triples, m, seed + 1)
  }

  /** Second-stage SRS of <= m triples per (draw_id, cluster). */
  def secondStage(draws: DataFrame, triples: DataFrame, m: Int, seed: Long): DataFrame = {
    val w = Window.partitionBy(col("draw_id")).orderBy(col("__ss_r"))
    expandDraws(draws, triples)
      .withColumn("__ss_r", rand(seed))
      .withColumn("__ss_rank", row_number().over(w))
      .where(col("__ss_rank") <= m)
      .drop("__ss_r", "__ss_rank")
  }

  /** Efraimidis–Spirakis A-Res keys: key_i = u^(1/M_i) with u ~ U(0,1).
    * Input: cluster summary (subject, size, tau); adds `key`.
    * The size-m prefix by descending key is a size-weighted sample without
    * replacement — the reservoir invariant maintained on evolving KGs.
    */
  def aResKeys(summary: DataFrame, seed: Long): DataFrame =
    summary.withColumn("key", pow(rand(seed), lit(1.0) / col("size")))

  /** Merge reservoir states: keep the `capacity` largest keys of the union
    * (a per-partition top-n). Both inputs must have (subject, size, tau, key).
    */
  def reservoirMerge(current: DataFrame, incoming: DataFrame, capacity: Int): DataFrame =
    current.unionByName(incoming)
      .orderBy(col("key").desc, col("subject"))
      .limit(capacity)
}
