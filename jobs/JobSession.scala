package repro.jobs

import org.apache.spark.sql.SparkSession

/** The program's SparkSession, shared by the spark-submit entry points,
  * the tests and the benchmark.
  *
  * The master comes from `SPARK_MASTER` (default `local[*]`). Broadcast
  * joins are off, so every edge join takes the shuffle path. Shuffles
  * default to one partition per core (`defaultParallelism`): at the
  * graph sizes of the evaluation a step moves about a megabyte, so a
  * wider split only adds map-side files and task overhead.
  * `SPARK_SHUFFLE_PARTITIONS` overrides the count.
  */
object JobSession {
  def create(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions",
               sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", s.sparkContext.defaultParallelism.toString))
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
