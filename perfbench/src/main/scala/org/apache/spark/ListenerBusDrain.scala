package org.apache.spark

/** Waits until every queued listener event has been delivered, so task
  * metrics read after an action are complete (the bus is private to Spark).
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
