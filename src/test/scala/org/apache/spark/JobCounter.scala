package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of driver code starts. Listener events
  * arrive asynchronously; the bus is private to Spark's package, hence
  * this file's location, and draining it makes the count complete.
  */
object JobCounter {
  def apply(sc: SparkContext)(body: => Any): Int = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      body
      sc.listenerBus.waitUntilEmpty()
      jobs.get
    } finally sc.removeSparkListener(listener)
  }
}
