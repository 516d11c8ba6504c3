package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark work attributed to one span. */
final class Counts {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadRecords = 0L

  def +=(o: Counts): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; taskMs += o.taskMs
    shuffleWriteBytes += o.shuffleWriteBytes; shuffleReadRecords += o.shuffleReadRecords
  }
}

/** One timed call: `parent` is the id of the enclosing span, or −1. */
final case class Span(id: Int, name: String, pass: Int, parent: Int, startNs: Long, endNs: Long, gcMs: Long,
                      counts: Counts) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Records spans around calls into the program, kept in memory.
  *
  * With `traced`, a SparkListener attributes every job, stage and task to
  * the innermost open span (through a job-local property the span sets),
  * and each span records the JVM's GC time spent inside it. Without it,
  * spans carry wall clock only, so the untraced run pays nothing else.
  */
final class Tracer(spark: SparkSession, val traced: Boolean) {
  private val sc = spark.sparkContext
  private val Key = "perfbench.span"
  private val counts = mutable.Map.empty[Int, Counts]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(Key))).map(_.toInt)

  private def add(span: Int)(f: Counts => Unit): Unit =
    counts.synchronized(f(counts.getOrElseUpdate(span, new Counts)))

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit =
      spanOf(e.properties).foreach(add(_)(_.jobs += 1))
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
      spanOf(e.properties).foreach(s => counts.synchronized(stageSpan(e.stageInfo.stageId) = s))
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
      counts.synchronized(stageSpan.get(e.stageInfo.stageId)).foreach(add(_)(_.stages += 1))
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      counts.synchronized(stageSpan.get(e.stageId)).foreach { s =>
        val m = e.taskMetrics
        add(s) { c =>
          c.tasks += 1
          if (m != null) {
            c.taskMs += m.executorRunTime
            c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
            c.shuffleReadRecords += m.shuffleReadMetrics.recordsRead
          }
        }
      }
  }
  if (traced) sc.addSparkListener(listener)

  private def gcMs(): Long =
    if (traced) ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
    else 0L

  /** Run `body` as span `name` of pass `pass`. */
  def span[A](name: String, pass: Int)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    if (traced) sc.setLocalProperty(Key, id.toString)
    val gc0 = gcMs()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val gc = gcMs() - gc0
      open = open.tail
      if (traced) sc.setLocalProperty(Key, open.headOption.map(_.toString).orNull)
      done += Span(id, name, pass, parent, t0, t1, gc, new Counts)
    }
  }

  /** All finished spans with their Spark counts, once every event is in. */
  def spans(): Seq[Span] = {
    if (traced) ListenerBusDrain(sc)
    counts.synchronized(done.toSeq.map(s => s.copy(counts = counts.getOrElse(s.id, new Counts))))
  }

  def close(): Unit = if (traced) sc.removeSparkListener(listener)
}
