package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import scala.collection.mutable

/** Task time and shuffle bytes per tag. The benchmark tags the Spark jobs of
  * one layer call through the `perfbench.tag` local property.
  */
final class TaskStats(spark: SparkSession) extends SparkListener {
  final class Bucket {
    var tasks = 0L
    var taskNanos = 0L
    var maxTaskNanos = 0L
    var shuffleBytes = 0L
    /** The longest task's share of the summed task time. */
    def maxTaskShare: Double = if (taskNanos == 0) 0.0 else maxTaskNanos.toDouble / taskNanos
    def shuffleMb: Double = shuffleBytes / 1e6
  }

  private val stageTag = mutable.Map.empty[Int, String]
  private val buckets  = mutable.Map.empty[String, Bucket]

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TaskStats.Key)))
    tag.foreach(stageTag(e.stageInfo.stageId) = _)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      val b = buckets.getOrElseUpdate(tag, new Bucket)
      val d = e.taskInfo.duration * 1000000L
      b.tasks += 1
      b.taskNanos += d
      b.maxTaskNanos = math.max(b.maxTaskNanos, d)
      Option(e.taskMetrics).foreach { m =>
        b.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Runs `body` with its Spark jobs tagged `tag`. */
  def tagged[A](tag: String)(body: => A): A = {
    val sc = spark.sparkContext
    val prev = sc.getLocalProperty(TaskStats.Key)
    sc.setLocalProperty(TaskStats.Key, tag)
    try body finally sc.setLocalProperty(TaskStats.Key, prev)
  }

  def tags: Seq[String] = { ListenerBusDrain(spark.sparkContext); synchronized(buckets.keys.toSeq.sorted) }

  /** Totals for a tag once every event has been delivered. */
  def bucket(tag: String): Bucket = {
    ListenerBusDrain(spark.sparkContext)
    synchronized(buckets.getOrElse(tag, new Bucket))
  }
}

object TaskStats {
  val Key = "perfbench.tag"
}
