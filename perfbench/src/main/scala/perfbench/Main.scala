package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Counts checked operations and the ones that threw or failed a check. */
final class Ops {
  var attempted = 0
  var failed = 0

  def check(what: String)(result: => Option[String]): Unit = {
    attempted += 1
    val verdict =
      try result
      catch { case NonFatal(e) => Some(s"check threw $e") }
    verdict.foreach { reason => failed += 1; System.err.println(s"FAILED $what: $reason") }
  }

  def threw(what: String, ops: Int, e: Throwable): Unit = {
    attempted += ops
    failed += ops
    System.err.println(s"FAILED $what: threw $e")
  }
}

/** One run's shared state: the session, the inputs and their references. */
final class Run(val spark: SparkSession, val in: Inputs, val ops: Ops) {
  lazy val rhoRef: Double = Reference.spectralRadius(in)
  lazy val goldStandard: Reference.Mat = Reference.goldStandard(in)
  var graph: Program.Graph = _
  var seeds: DataFrame = _
  var truth: DataFrame = _
  private val sketchRefs = mutable.Map.empty[Int, Reference.SketchCounts]
  private val labelRefs = mutable.Map.empty[(Seq[Double], Double), Array[Int]]

  def sketchRef(lmax: Int): Reference.SketchCounts = sketchRefs.getOrElseUpdate(lmax, Reference.sketch(in, lmax))

  def labelRef(h: Reference.Mat, rho: Double): Array[Int] =
    labelRefs.getOrElseUpdate((h.flatten.toSeq, rho),
      Reference.linbpLabels(in, h, Workload.Iterations, Workload.S, rho))

  /** Ingest the generated inputs (graph, m, degrees, seed and truth
    * frames) as span `ingest` of pass `pass`, and make them current.
    */
  def ingest(tr: Tracer, pass: Int): Unit = {
    val (g, s, t) = tr.span("ingest", pass) {
      val g = Program.ingest(spark, in.n, in.edgeFrame(spark, Inputs.Slices))
      Program.m(g)
      Program.degrees(g)
      (g, Program.materialize(in.seedFrame(spark, Inputs.Slices)),
        Program.materialize(in.truthFrame(spark, Inputs.Slices)))
    }
    ops.check("ingest") {
      val deg = Program.degrees(g).collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
      val badDeg = (0 until in.n).find(v => deg.getOrElse(v, 0.0) != in.degree(v))
      if (Program.m(g) != in.m) Some(s"m = ${Program.m(g)}, expected ${in.m}")
      else badDeg.map(v => s"degree($v) = ${deg.getOrElse(v, 0.0)}, expected ${in.degree(v)}")
    }
    graph = g; seeds = s; truth = t
  }
}

/** What one pass reports besides its spans. */
final case class PassOut(h: Reference.Mat, evals: Int, hL2: Double, note: String)

/** A workload: an input shape and the pass run on it. Each pass runs on
  * a freshly ingested graph, so nothing the program caches on a graph
  * carries over from one pass to the next.
  */
sealed trait Workload {
  def name: String
  def spec: GraphSpec
  /** Operations one pass checks, counted as failed if the pass throws. */
  def opsPerPass: Int
  def pass(run: Run, tr: Tracer, p: Int): PassOut
}

object Workload {
  val Lmax = 5
  val Lambda = 10.0
  val Restarts = 10
  val Iterations = 10
  val S = 0.5
  /** Holdout budget: the k*+1 = 4 points of Nelder–Mead's first simplex at k=3. */
  val HoldoutEvals = 4

  val all: Seq[Workload] = Seq(PipelineSmall, HoldoutSmall)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** Sketch (ℓmax=5) → DCEr (λ=10, r=10) → ρ(W) → LinBP (s=0.5, 10
  * iterations) → argmax → score, each output checked against the
  * driver-side references.
  */
object PipelineSmall extends Workload {
  import Workload._
  val name = "pipeline-small"
  val spec = GraphSpec(k = 3, h = 8.0, n = 2000, f = 0.01)
  val opsPerPass = 6

  def pass(run: Run, tr: Tracer, p: Int): PassOut = {
    val sk = tr.span("sketch", p)(Program.sketch(run.graph, run.seeds, spec.k, Lmax))
    val fit = tr.span("estimators", p)(Program.dcer(sk, Lmax, Lambda, Restarts))
    val rho = tr.span("rho", p)(Program.spectralRadius(run.graph))
    val f = tr.span("linbp", p)(Program.linbp(run.graph, run.seeds, fit.h, Iterations, S, rho))
    val preds = tr.span("score.argmax", p)(Program.materialize(Program.argmax(f)))
    val acc = tr.span("score.accuracy", p)(Program.accuracy(preds, run.truth, run.seeds))

    val ops = run.ops
    ops.check("sketch")(Reference.checkSketch(run.sketchRef(Lmax), sk.mFull, sk.mNB))
    ops.check("estimators")(Reference.checkH(fit.h))
    ops.check("rho")(Reference.checkRho(run.rhoRef, rho))
    val got = preds.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    ops.check("linbp")(Reference.checkLabels(run.labelRef(fit.h, rho), got))
    ops.check("score") {
      Reference.checkAccuracy(Reference.accuracy(run.in, Array.tabulate(run.in.n)(v => got.getOrElse(v.toLong, 0))), acc)
    }
    val hL2 = Reference.frobDist(fit.h, run.goldStandard)
    ops.check("quality")(Reference.checkQuality(hL2, acc))
    PassOut(fit.h, fit.evals, hL2, f"accuracy $acc%.4f  ρ(W) $rho%.6f vs converged ${run.rhoRef}%.6f (relative ${math.abs(rho / run.rhoRef - 1)}%.1e)")
  }
}

/** Holdout (b=1, 4 evaluations, ρ(W) computed by the call): four LinBP
  * runs on one graph with changing H.
  */
object HoldoutSmall extends Workload {
  import Workload._
  val name = "holdout-small"
  val spec = GraphSpec(k = 3, h = 8.0, n = 2000, f = 0.05)
  val opsPerPass = 1

  def pass(run: Run, tr: Tracer, p: Int): PassOut = {
    val fit = tr.span("holdout", p) {
      Program.holdout(run.graph, run.seeds, spec.k, 1, HoldoutEvals, Iterations, S, run.in.seed)
    }
    run.ops.check("holdout") {
      Reference.checkH(fit.h).orElse(
        if (fit.evals == HoldoutEvals) None else Some(s"spent ${fit.evals} evaluations, budget $HoldoutEvals"))
    }
    PassOut(fit.h, fit.evals, Reference.frobDist(fit.h, run.goldStandard), "")
  }
}

/** The benchmark process: see README.md for what it measures. */
object Main {

  val Layers = Seq("ingest", "sketch", "estimators", "rho", "linbp", "score", "holdout")

  final case class Metric(name: String, value: Double, unit: String)

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workload.byName(args.getOrElse("workload", ""))
    val seed = args("seed").toLong
    val seconds = args.getOrElse("seconds", "10").toDouble
    val mode = if (args.get("local1").contains("1")) "local1" else if (args.get("trace").contains("1")) "trace" else "run"

    val in = Inputs.generate(w.spec, seed)
    val t0 = System.nanoTime()
    val spark = Program.session()
    val sessionS = (System.nanoTime() - t0) / 1e9
    val run = new Run(spark, in, new Ops)
    val plain = new Tracer(spark, traced = false)
    val host = hostFacts(spark)

    val metrics = mode match {
      case "local1" => local1(w, run, plain)
      case "trace" => traced(w, run, plain, host)
      case _ => untraced(w, run, plain, sessionS, seconds, host)
    }
    writeSpans(s"${w.name}-seed$seed-$mode", host, plain.spans())
    spark.stop()
    val ops = run.ops
    val json = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""{"correct": ${ops.failed == 0}, "attempted": ${ops.attempted}, "failed": ${ops.failed}, "metrics": {$json}}""")
  }

  /** Ingests fresh inputs, then runs pass `p` on them; a pass that throws
    * counts all its operations as failed.
    */
  private def pass(w: Workload, run: Run, tr: Tracer, p: Int): Option[PassOut] = {
    run.ingest(tr, p)
    try Some(tr.span("pass", p)(w.pass(run, tr, p)))
    catch { case NonFatal(e) => run.ops.threw(s"pass $p", w.opsPerPass, e); None }
  }

  private def layerOf(span: Span): String = span.name.takeWhile(_ != '.')

  private def layerSpans(spans: Seq[Span], l: String, p: Int): Seq[Span] =
    spans.filter(s => s.pass == p && layerOf(s) == l)

  /** Wall ms of pass `p` (its calls into the program, without ingest or
    * checks), and of the part that estimates Ĥ.
    */
  private def passMs(spans: Seq[Span], p: Int): Option[(Double, Double)] =
    if (!spans.exists(s => s.pass == p && s.name == "pass")) None
    else {
      val calls = spans.filter(s => s.pass == p && s.name != "pass" && s.name != "ingest")
      Some((calls.map(_.ms).sum, calls.filter(s => Set("sketch", "estimators", "holdout")(s.name)).map(_.ms).sum))
    }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The timed run, as a one-shot user meets the program: session,
    * three set-ups, then the first pass in this JVM. The end-to-end
    * metrics come from that cold pass; passes that follow while
    * `seconds` have not elapsed are warm and only reported.
    */
  private def untraced(w: Workload, run: Run, tr: Tracer, sessionS: Double, seconds: Double,
                       host: Seq[(String, String)]): Seq[Metric] = {
    run.ingest(tr, -2)
    run.ingest(tr, -1)
    val start = System.nanoTime()
    val out = pass(w, run, tr, 0)
    var p = 1
    while ((System.nanoTime() - start) / 1e9 < seconds) {
      pass(w, run, tr, p)
      p += 1
    }
    val spans = tr.spans()
    val ingestS = spans.filter(_.name == "ingest").map(_.ms / 1e3)
    val (coldMs, estMs) = passMs(spans, 0).getOrElse((Double.NaN, Double.NaN))
    val (coldS, estS) = (coldMs / 1e3, estMs / 1e3)
    val warmS = (1 until p).flatMap(passMs(spans, _)).map(_._1 / 1e3)
    val setupS = sessionS + median(ingestS)
    val m = run.in.m.toDouble

    println(s"perfbench ${w.name} seed=${run.in.seed} n=${run.in.n} m=${run.in.m} k=${run.in.k} " +
      s"seeds=${run.in.seeds.length}; ${hostLine(host)}")
    Seq(
      line("setup_s", "s", Seq(setupS), s"session ${fmt(sessionS)} s + median of ingests ${ingestS.map(fmt).mkString("/")} s"),
      line("cold_s", "s", Seq(coldS), "first pass in this JVM: ingested inputs → the workload's answer"),
      line("estimate_s", "s", Seq(estS), "its time to Ĥ"),
      line("edges_per_s", "edges/s", Seq(m / coldS), s"m = ${run.in.m} over cold_s"),
      line("warm_s", "s", warmS, "later passes in this JVM (report only)"),
    ).foreach(println)
    if (w == PipelineSmall)
      println(f"  estimate / propagate = ${fmt(estS)} s / ${fmt(coldS - estS)} s = ${estS / (coldS - estS)}%.3f" +
        "  (propagate = ρ(W) + LinBP + argmax + scoring)")
    out.foreach(o => println(f"  h_l2 ${o.hL2}%.4f (‖Ĥ − GS‖, GS from the full labels)  evals ${o.evals}  ${o.note}"))
    println(s"  failed_ratio ${run.ops.failed}/${run.ops.attempted}")

    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("cold_s", coldS, "s"),
      Metric("estimate_s", estS, "s"),
      Metric("edges_per_s", m / coldS, "edges/s"))
  }

  /** The traced run: a cold and a warm untraced pass, then one traced
    * pass and the differencing probes, all attributed per layer.
    */
  private def traced(w: Workload, run: Run, plain: Tracer, host: Seq[(String, String)]): Seq[Metric] = {
    pass(w, run, plain, 0)
    pass(w, run, plain, 1)
    val untracedS = passMs(plain.spans(), 1).map(_._1 / 1e3).getOrElse(Double.NaN)
    val tr = new Tracer(run.spark, traced = true)
    val out = pass(w, run, tr, 2)
    // Probes, differenced: the pass's ℓmax=5 sketch against ℓmax=1, and
    // LinBP with 10 against 1 iteration (ρ(W) passed in).
    if (w == PipelineSmall) tr.span("sketch", 4)(Program.sketch(run.graph, run.seeds, w.spec.k, 1))
    val h = out.map(_.h).getOrElse(Inputs.plantedH(w.spec.k, w.spec.h))
    for ((it, p) <- Seq(Workload.Iterations -> 5, 1 -> 6))
      tr.span("linbp", p)(Program.linbp(run.graph, run.seeds, h, it, Workload.S, run.rhoRef))
    val spans = tr.spans()
    tr.close()
    writeSpans(s"${w.name}-seed${run.in.seed}-traced", host, spans)

    val cores = run.spark.sparkContext.defaultParallelism
    final case class Agg(ms: Double, c: Counts, gcMs: Long)
    def agg(l: String, p: Int): Agg = {
      val ss = layerSpans(spans, l, p)
      val c = new Counts
      ss.foreach(s => c += s.counts)
      Agg(ss.map(_.ms).sum, c, ss.map(_.gcMs).sum)
    }
    val coldSpans = plain.spans()
    val perLayer = Layers.flatMap { l =>
      val a = agg(l, 2)
      Seq(
        Metric(s"$l.cold_wall_ms", layerSpans(coldSpans, l, 0).map(_.ms).sum, "ms"),
        Metric(s"$l.wall_ms", a.ms, "ms"),
        Metric(s"$l.jobs", a.c.jobs.toDouble, "count"),
        Metric(s"$l.stages", a.c.stages.toDouble, "count"),
        Metric(s"$l.tasks", a.c.tasks.toDouble, "count"),
        Metric(s"$l.task_ms", a.c.taskMs.toDouble, "ms"),
        Metric(s"$l.busy_share", if (a.ms > 0) a.c.taskMs / (a.ms * cores) else 0.0, "fraction"),
        Metric(s"$l.shuffle_write_bytes", a.c.shuffleWriteBytes.toDouble, "bytes"),
        Metric(s"$l.shuffle_read_records", a.c.shuffleReadRecords.toDouble, "count"),
        Metric(s"$l.gc_ms", a.gcMs.toDouble, "ms"))
    }
    def perStep(l: String, many: Int, one: Int, steps: Int)(f: Agg => Double): Double =
      (f(agg(l, many)) - f(agg(l, one))) / steps
    val hops = Workload.Lmax - 1
    val iters = Workload.Iterations - 1
    val evals = out.map(_.evals.toDouble).getOrElse(0.0)
    def perEval(l: String, f: Agg => Double): Double = {
      val a = agg(l, 2)
      if (a.ms > 0 && evals > 0) f(a) / evals else 0.0
    }
    val tracedS = passMs(spans, 2).map(_._1 / 1e3).getOrElse(Double.NaN)
    val derived = Seq(
      Metric("sketch.ms_per_hop", perStep("sketch", 2, 4, hops)(_.ms), "ms"),
      Metric("sketch.jobs_per_hop", perStep("sketch", 2, 4, hops)(_.c.jobs.toDouble), "count"),
      Metric("linbp.ms_per_iter", perStep("linbp", 5, 6, iters)(_.ms), "ms"),
      Metric("linbp.jobs_per_iter", perStep("linbp", 5, 6, iters)(_.c.jobs.toDouble), "count"),
      Metric("linbp.shuffle_bytes_per_iter", perStep("linbp", 5, 6, iters)(_.c.shuffleWriteBytes.toDouble), "bytes"),
      Metric("estimators.evals", if (agg("estimators", 2).ms > 0) evals else 0.0, "count"),
      Metric("estimators.ms_per_eval", perEval("estimators", _.ms), "ms"),
      Metric("holdout.evals", if (agg("holdout", 2).ms > 0) evals else 0.0, "count"),
      Metric("holdout.ms_per_eval", perEval("holdout", _.ms), "ms"),
      Metric("holdout.jobs_per_eval", perEval("holdout", _.c.jobs.toDouble), "count"),
      Metric("trace.overhead_s", tracedS - untracedS, "s"))
    val all = perLayer ++ derived
    println(s"perfbench ${w.name} seed=${run.in.seed} traced pass; ${hostLine(host)}")
    all.foreach(m => println(f"  ${m.name}%-32s ${m.value}%14.3f ${m.unit}"))
    // run.py fills these from a local[1] JVM on pipeline-small; 0 elsewhere.
    all ++ Layers.map(l => Metric(s"$l.local1_wall_ms", 0.0, "ms"))
  }

  /** The single-thread baseline: the first pass of a `local[1]` JVM. */
  private def local1(w: Workload, run: Run, tr: Tracer): Seq[Metric] = {
    pass(w, run, tr, 0)
    val spans = tr.spans()
    Layers.map(l => Metric(s"$l.local1_wall_ms", layerSpans(spans, l, 0).map(_.ms).sum, "ms"))
  }

  private def hostFacts(spark: SparkSession): Seq[(String, String)] = Seq(
    "cores" -> Runtime.getRuntime.availableProcessors.toString,
    "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
    "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
    "spark" -> spark.version,
    "java" -> System.getProperty("java.version"),
    "scala" -> scala.util.Properties.versionNumberString)

  private def hostLine(host: Seq[(String, String)]): String = host.map { case (k, v) => s"$k=$v" }.mkString(" ")

  private def fmt(x: Double): String = f"$x%.3f"

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else java.math.BigDecimal.valueOf(x).toPlainString

  /** One report line: median, the highest percentile with at least ten
    * samples beyond it (none below 11 samples), and the sample count.
    */
  private def line(name: String, unit: String, xs: Seq[Double], note: String): String = {
    val s = xs.sorted
    val tail = (99 to 50 by -1).find(q => s.length - math.ceil(q / 100.0 * s.length) >= 10)
      .map(q => s"  p$q ${fmt(s(math.ceil(q / 100.0 * s.length).toInt - 1))}").getOrElse("")
    f"  $name%-12s median ${fmt(median(xs))}%10s $unit%-8s (n=${xs.size})$tail  $note"
  }

  /** Spans stay in memory during the run and are written here at its end. */
  private def writeSpans(tag: String, host: Seq[(String, String)], spans: Seq[Span]): Unit = {
    val dir = Paths.get(".bench_build", "traces")
    Files.createDirectories(dir)
    val head = host.map { case (k, v) => s""""$k": "$v"""" }.mkString("{", ", ", "}")
    val body = spans.map { s =>
      val c = s.counts
      s"""{"id": ${s.id}, "name": "${s.name}", "pass": ${s.pass}, "parent": ${s.parent}, "start_ns": ${s.startNs}, """ +
        s""""end_ns": ${s.endNs}, "gc_ms": ${s.gcMs}, "jobs": ${c.jobs}, "stages": ${c.stages}, "tasks": ${c.tasks}, """ +
        s""""task_ms": ${c.taskMs}, "shuffle_write_bytes": ${c.shuffleWriteBytes}, "shuffle_read_records": ${c.shuffleReadRecords}}"""
    }
    Files.write(dir.resolve(s"$tag.jsonl"), (head +: body).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
