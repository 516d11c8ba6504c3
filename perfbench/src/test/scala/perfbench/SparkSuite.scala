package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** One session per test JVM, from the program's own builder. */
trait SparkSuite extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSuite.shared
}

object SparkSuite {
  lazy val shared: SparkSession = Program.session()
}
