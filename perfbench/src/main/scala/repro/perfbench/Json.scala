package repro.perfbench

import scala.collection.mutable

/** Hand-rolled JSON for the result and span files (the build adds no JSON
  * library). Values are `Map[String, Any]` / `Seq[Any]` / `String` / `Double` /
  * `Long` / `Int` / `Boolean`; the reader returns numbers as `Double`.
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    put(sb, v)
    sb.toString
  }

  private def put(sb: StringBuilder, v: Any): Unit = v match {
    case null         => sb ++= "null"
    case s: String    => quote(sb, s)
    case b: Boolean   => sb ++= b.toString
    case i: Int       => sb ++= i.toString
    case l: Long      => sb ++= l.toString
    case d: Double    =>
      require(!d.isNaN && !d.isInfinite, s"JSON cannot hold $d")
      sb ++= d.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(sb, k.toString); sb += ':'; put(sb, x)
      }
      sb += '}'
    case s: Iterable[_] =>
      sb += '['
      var first = true
      s.foreach { x => if (!first) sb += ','; first = false; put(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"not JSON: $other")
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }

  /** Parses what [[write]] produces (and standard JSON in general). */
  def read(s: String): Any = {
    val p = new Parser(s)
    val v = p.value()
    p.ws()
    require(p.i == s.length, s"trailing input at ${p.i}")
    v
  }

  private final class Parser(s: String) {
    var i = 0
    def ws(): Unit = while (i < s.length && s(i).isWhitespace) i += 1
    private def expect(c: Char): Unit = {
      ws(); require(i < s.length && s(i) == c, s"expected '$c' at $i"); i += 1
    }
    def value(): Any = {
      ws()
      require(i < s.length, "unexpected end of JSON")
      s(i) match {
        case '{' =>
          i += 1
          val m = mutable.LinkedHashMap.empty[String, Any]
          ws()
          if (s(i) == '}') i += 1
          else {
            var more = true
            while (more) {
              ws(); val k = str(); expect(':'); m(k) = value(); ws()
              if (s(i) == ',') i += 1 else { expect('}'); more = false }
            }
          }
          m
        case '[' =>
          i += 1
          val b = mutable.ArrayBuffer.empty[Any]
          ws()
          if (s(i) == ']') i += 1
          else {
            var more = true
            while (more) {
              b += value(); ws()
              if (s(i) == ',') i += 1 else { expect(']'); more = false }
            }
          }
          b.toSeq
        case '"' => str()
        case 't' => lit("true", true)
        case 'f' => lit("false", false)
        case 'n' => lit("null", null)
        case _ =>
          val st = i
          while (i < s.length && "+-0123456789.eE".indexOf(s(i)) >= 0) i += 1
          s.substring(st, i).toDouble
      }
    }
    private def lit(word: String, v: Any): Any = {
      require(s.startsWith(word, i), s"bad literal at $i"); i += word.length; v
    }
    private def str(): String = {
      require(s(i) == '"', s"expected string at $i")
      i += 1
      val sb = new StringBuilder
      while (s(i) != '"') {
        if (s(i) == '\\') {
          s(i + 1) match {
            case 'n' => sb += '\n'
            case 't' => sb += '\t'
            case 'u' => sb += Integer.parseInt(s.substring(i + 2, i + 6), 16).toChar; i += 4
            case c   => sb += c
          }
          i += 2
        } else { sb += s(i); i += 1 }
      }
      i += 1
      sb.toString
    }
  }
}
