package org.apache.spark

/** Waits until every queued listener event has been delivered, so counts
  * read after a traced call include all of its jobs. The bus is private
  * to Spark's package, hence this file's location.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
