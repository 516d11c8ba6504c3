package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** One workload's graph shape: a planted SBM with power-law ranks. */
final case class GraphSpec(k: Int, h: Double, n: Int, f: Double, avgDegree: Double = 10.0, gamma: Double = 0.3) {
  def edgeDraws: Long = math.round(n * avgDegree / 2)
}

/** Generated inputs, held on the driver.
  *
  * `src`/`dst` are the raw undirected draws (self-loops and duplicates
  * included, as a user would hand them over); `adj` is the deduplicated
  * symmetric adjacency in CSR form, the reference the checks run on.
  */
final class Inputs(
    val spec: GraphSpec,
    val seed: Long,
    val classSizes: Array[Int],
    val cls: Array[Int],
    val src: Array[Int],
    val dst: Array[Int],
    val seeds: Array[Int],
    val adjStart: Array[Int],
    val adj: Array[Int]) {

  def n: Int = spec.n
  def k: Int = spec.k
  def m: Long = adj.length / 2L
  def degree(v: Int): Int = adjStart(v + 1) - adjStart(v)

  /** The raw undirected draws as (src: Long, dst: Long), cut into `slices`. */
  def edgeFrame(spark: SparkSession, slices: Int): DataFrame =
    frame(spark, slices, src.indices.map(i => Row(src(i).toLong, dst(i).toLong)),
      StructField("src", LongType, nullable = false) :: StructField("dst", LongType, nullable = false) :: Nil)

  /** Seed labels (node: Long, cls: Int). */
  def seedFrame(spark: SparkSession, slices: Int): DataFrame = labelFrame(spark, slices, seeds)

  /** Full truth labels (node: Long, cls: Int). */
  def truthFrame(spark: SparkSession, slices: Int): DataFrame = labelFrame(spark, slices, Array.range(0, n))

  private def labelFrame(spark: SparkSession, slices: Int, nodes: Array[Int]): DataFrame =
    frame(spark, slices, nodes.toSeq.map(v => Row(v.toLong, cls(v))),
      StructField("node", LongType, nullable = false) :: StructField("cls", IntegerType, nullable = false) :: Nil)

  private def frame(spark: SparkSession, slices: Int, rows: Seq[Row], fields: List[StructField]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), StructType(fields))
}

/** Driver-side input generator.
  *
  * Every draw is splitmix64 over (workload seed, stream, index), so the
  * output depends only on the seed and the spec: not on core count,
  * partitioning, or the program's own generator.
  */
object Inputs {

  /** Partition count of every frame handed to the program. */
  val Slices = 8

  private val Golden = 0x9E3779B97F4A7C15L

  def splitmix64(x: Long): Long = {
    var z = x + Golden
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** A 64-bit draw for (seed, stream, index). */
  def draw(seed: Long, stream: Long, index: Long): Long =
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index)

  /** A uniform double in [0, 1) for (seed, stream, index). */
  def unit(seed: Long, stream: Long, index: Long): Double =
    (draw(seed, stream, index) >>> 11) * (1.0 / (1L << 53))

  /** The paper's planted H (§5): classes paired 0↔1, 2↔3, …, an odd last
    * class paired with itself; h on paired positions, 1 elsewhere, rows
    * normalized by k−1+h. It is the same matrix as the program's
    * `CompatibilityMatrix.planted`, kept here so that a change to the
    * program cannot shift the inputs.
    */
  def plantedH(k: Int, h: Double): Array[Array[Double]] = {
    val partner = Array.tabulate(k)(i => if (i == k - 1 && k % 2 == 1) i else if (i % 2 == 0) i + 1 else i - 1)
    Array.tabulate(k, k)((i, j) => (if (partner(i) == j) h else 1.0) / (k - 1 + h))
  }

  private val SeedStream = -1L

  def generate(spec: GraphSpec, seed: Long): Inputs = {
    val k = spec.k
    val n = spec.n
    val sizes = Array.fill(k)(math.max(1, math.round(n.toDouble / k).toInt))
    sizes(k - 1) += n - sizes.sum
    require(sizes.forall(_ >= 1), s"class sizes must be >= 1: ${sizes.mkString(",")}")
    val offsets = sizes.scanLeft(0)(_ + _)
    val cls = new Array[Int](n)
    for (c <- 0 until k; v <- offsets(c) until offsets(c + 1)) cls(v) = c

    // Unordered class pairs get edge budgets ∝ (α_c·H_cd + α_d·H_dc)/2.
    val h = plantedH(k, spec.h)
    val alpha = sizes.map(_.toDouble / n)
    val pairs = for { c <- 0 until k; d <- c until k } yield (c, d)
    val raw = pairs.map { case (c, d) => if (c == d) alpha(c) * h(c)(c) else alpha(c) * h(c)(d) + alpha(d) * h(d)(c) }
    val budgets = raw.map(w => math.round(spec.edgeDraws * w / raw.sum).toInt)
    val total = budgets.sum
    val src = new Array[Int](total)
    val dst = new Array[Int](total)
    val expo = 1.0 / (1.0 - spec.gamma)
    def rank(u: Double, size: Int): Int = math.min(size - 1, math.floor(math.pow(u, expo) * size).toInt)
    var e = 0
    var block = 0
    while (block < pairs.length) {
      val (c, d) = pairs(block)
      var i = 0
      while (i < budgets(block)) {
        src(e) = offsets(c) + rank(unit(seed, 2L * block, i), sizes(c))
        dst(e) = offsets(d) + rank(unit(seed, 2L * block + 1, i), sizes(d))
        e += 1
        i += 1
      }
      block += 1
    }

    // Stratified seeds: per class, the max(1, round(f·n_c)) nodes with the
    // smallest draws.
    val seeds = (0 until k).flatMap { c =>
      val want = math.max(1, math.round(spec.f * sizes(c)).toInt)
      (offsets(c) until offsets(c + 1)).sortBy(v => (draw(seed, SeedStream, v), v)).take(want)
    }.sorted.toArray

    val (adjStart, adj) = csr(n, src, dst)
    new Inputs(spec, seed, sizes, cls, src, dst, seeds, adjStart, adj)
  }

  /** Symmetric, deduplicated, loop-free CSR adjacency of undirected draws. */
  def csr(n: Int, src: Array[Int], dst: Array[Int]): (Array[Int], Array[Int]) = {
    val keys = src.indices.iterator
      .filter(i => src(i) != dst(i))
      .map { i => val a = math.min(src(i), dst(i)); val b = math.max(src(i), dst(i)); a.toLong * n + b }
      .toArray.distinct
    val deg = new Array[Int](n + 1)
    keys.foreach { key => deg((key / n).toInt) += 1; deg((key % n).toInt) += 1 }
    val start = deg.scanLeft(0)(_ + _).take(n + 1)
    val fill = start.clone()
    val adj = new Array[Int](keys.length * 2)
    keys.foreach { key =>
      val a = (key / n).toInt; val b = (key % n).toInt
      adj(fill(a)) = b; fill(a) += 1
      adj(fill(b)) = a; fill(b) += 1
    }
    (start, adj)
  }
}
