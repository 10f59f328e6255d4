//===- tools/rpjson.cpp - Observability JSON validator --------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
// Schema-checks the JSON the toolchain emits, with no external
// dependencies: a hand-rolled recursive-descent JSON parser plus one
// checker per format. Wired into ctest so a malformed emitter fails the
// build, not a downstream dashboard.
//
//   rpjson remarks FILE    JSON-lines remark stream (--remarks-json)
//   rpjson profile FILE    tag-profile object(s), one per line
//                          (--profile-json; suite mode emits one per
//                          program)
//   rpjson trace FILE      Chrome trace-event object (--trace)
//   rpjson timing FILE     timing report object (--timing-json=FILE)
//   rpjson canon FILE      parse a trace file and print its deterministic
//                          skeleton: volatile fields (ts/dur/tid) removed,
//                          events sorted — byte-comparable across runs and
//                          worker counts
//   rpjson metrics FILE    metrics registry object (--metrics-json)
//   rpjson prom FILE       Prometheus text exposition (--metrics-prom):
//                          HELP/TYPE discipline, name charset, monotone
//                          cumulative histogram buckets
//   rpjson metrics-canon FILE
//                          print a metrics file's deterministic skeleton:
//                          volatile metrics dropped, count-stable
//                          histograms reduced to their count —
//                          byte-comparable across runs and worker counts
//   rpjson served FILE     rpserved response envelopes, one JSON object per
//                          line: status vocabulary, key format, cached
//                          provenance, error presence on failures
//
// Exit codes: 0 valid, 1 invalid or unreadable input, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON value + parser
//===----------------------------------------------------------------------===//

struct JValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JValue> Items; ///< Array elements
  std::vector<std::pair<std::string, JValue>> Members; ///< Object members

  const JValue *field(const std::string &Name) const {
    for (const auto &M : Members)
      if (M.first == Name)
        return &M.second;
    return nullptr;
  }
};

class JParser {
public:
  JParser(const std::string &Text) : S(Text) {}

  /// Parses one JSON value. Returns false with Error set on malformed
  /// input. \p Pos advances past the value and any trailing whitespace.
  bool parse(JValue &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    return true;
  }

  bool atEnd() const { return Pos == S.size(); }
  std::string Error;

private:
  const std::string &S;
  size_t Pos = 0;

  bool fail(const std::string &Why) {
    std::ostringstream OS;
    OS << Why << " at offset " << Pos;
    Error = OS.str();
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool lit(const char *Word) {
    size_t N = std::strlen(Word);
    if (S.compare(Pos, N, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += N;
    return true;
  }

  bool value(JValue &Out) {
    if (Pos >= S.size())
      return fail("unexpected end of input");
    switch (S[Pos]) {
    case '{':
      return object(Out);
    case '[':
      return array(Out);
    case '"':
      Out.K = JValue::String;
      return string(Out.Str);
    case 't':
      Out.K = JValue::Bool;
      Out.B = true;
      return lit("true");
    case 'f':
      Out.K = JValue::Bool;
      Out.B = false;
      return lit("false");
    case 'n':
      Out.K = JValue::Null;
      return lit("null");
    default:
      return number(Out);
    }
  }

  bool object(JValue &Out) {
    Out.K = JValue::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Pos >= S.size() || S[Pos] != '"')
        return fail("expected object key");
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      JValue V;
      if (!value(V))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JValue &Out) {
    Out.K = JValue::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      JValue V;
      if (!value(V))
        return false;
      Out.Items.push_back(std::move(V));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      if (++Pos >= S.size())
        return fail("unterminated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I != 4; ++I) {
          char H = S[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // The emitters only escape control characters; decode the BMP
        // code point as UTF-8.
        if (V < 0x80) {
          Out += static_cast<char>(V);
        } else if (V < 0x800) {
          Out += static_cast<char>(0xC0 | (V >> 6));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (V >> 12));
          Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        }
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(JValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
        ++Pos;
    }
    if (Pos == Start || (Pos == Start + 1 && S[Start] == '-'))
      return fail("malformed number");
    Out.K = JValue::Number;
    Out.Num = std::strtod(S.c_str() + Start, nullptr);
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Checkers
//===----------------------------------------------------------------------===//

/// Collects schema violations; the first few are reported with context.
struct Checker {
  std::vector<std::string> Problems;

  void problem(const std::string &Where, const std::string &What) {
    Problems.push_back(Where + ": " + What);
  }

  bool need(const JValue &O, const std::string &Where, const char *Key,
            JValue::Kind K, const JValue **Out = nullptr) {
    const JValue *F = O.field(Key);
    if (!F) {
      problem(Where, std::string("missing key '") + Key + "'");
      return false;
    }
    if (F->K != K) {
      problem(Where, std::string("key '") + Key + "' has wrong type");
      return false;
    }
    if (Out)
      *Out = F;
    return true;
  }

  bool oneOf(const std::string &Where, const char *Key,
             const std::string &Val, const std::vector<const char *> &Set) {
    for (const char *S : Set)
      if (Val == S)
        return true;
    problem(Where, std::string("key '") + Key + "' has unknown value '" +
                       Val + "'");
    return false;
  }
};

const std::vector<const char *> &remarkKinds() {
  static const std::vector<const char *> Kinds = {
      "promoted", "missed", "hoisted", "residual", "note"};
  return Kinds;
}

const std::vector<const char *> &remarkReasons() {
  static const std::vector<const char *> Reasons = {
      "none",           "call-modref",       "aliased-pointer-op",
      "reg-pressure",   "no-landing-pad",    "loop-variant-address",
      "group-conflict", "multi-tag-pointer", "tag-modified",
      "multiple-defs",  "spill-slot",        "promotion-off",
      "late-promotable", "heap-or-unknown"};
  return Reasons;
}

void checkRemarkObject(const JValue &O, const std::string &Where,
                       Checker &C) {
  const JValue *F = nullptr;
  C.need(O, Where, "pass", JValue::String);
  if (C.need(O, Where, "kind", JValue::String, &F))
    C.oneOf(Where, "kind", F->Str, remarkKinds());
  if (C.need(O, Where, "reason", JValue::String, &F))
    C.oneOf(Where, "reason", F->Str, remarkReasons());
  C.need(O, Where, "function", JValue::String);
  C.need(O, Where, "loop", JValue::String);
  C.need(O, Where, "depth", JValue::Number);
  C.need(O, Where, "tag", JValue::String);
  C.need(O, Where, "message", JValue::String);
}

/// Validates a JSON-lines file: every non-empty line one object checked by
/// \p CheckOne. \p What names the format in diagnostics.
int checkJsonLines(const std::string &Text, const char *What,
                   void (*CheckOne)(const JValue &, const std::string &,
                                    Checker &)) {
  Checker C;
  size_t LineNo = 0, Objects = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::ostringstream WS;
    WS << What << " line " << LineNo;
    std::string Where = WS.str();
    JParser P(Line);
    JValue V;
    if (!P.parse(V) || !P.atEnd()) {
      C.problem(Where, P.Error.empty() ? "trailing garbage" : P.Error);
      continue;
    }
    if (V.K != JValue::Object) {
      C.problem(Where, "line is not a JSON object");
      continue;
    }
    ++Objects;
    CheckOne(V, Where, C);
  }
  if (Objects == 0)
    C.Problems.push_back(std::string(What) + ": no objects found");
  for (size_t I = 0; I != C.Problems.size() && I != 10; ++I)
    std::fprintf(stderr, "rpjson: %s\n", C.Problems[I].c_str());
  if (C.Problems.size() > 10)
    std::fprintf(stderr, "rpjson: ... and %zu more problem(s)\n",
                 C.Problems.size() - 10);
  if (!C.Problems.empty())
    return 1;
  std::fprintf(stderr, "rpjson: %s ok (%zu object(s))\n", What, Objects);
  return 0;
}

void checkProfileObject(const JValue &O, const std::string &Where,
                        Checker &C) {
  const JValue *Loops = nullptr, *Counts = nullptr;
  const JValue *TotalLoads = nullptr, *TotalStores = nullptr;
  C.need(O, Where, "loops", JValue::Array, &Loops);
  C.need(O, Where, "counts", JValue::Array, &Counts);
  C.need(O, Where, "total_loads", JValue::Number, &TotalLoads);
  C.need(O, Where, "total_stores", JValue::Number, &TotalStores);
  if (Loops)
    for (size_t I = 0; I != Loops->Items.size(); ++I) {
      std::ostringstream WS;
      WS << Where << " loops[" << I << "]";
      const JValue &L = Loops->Items[I];
      if (L.K != JValue::Object) {
        C.problem(WS.str(), "not an object");
        continue;
      }
      C.need(L, WS.str(), "function", JValue::String);
      C.need(L, WS.str(), "header", JValue::String);
      C.need(L, WS.str(), "depth", JValue::Number);
      const JValue *Parent = nullptr;
      if (C.need(L, WS.str(), "parent", JValue::Number, &Parent) &&
          Parent->Num >= static_cast<double>(I))
        C.problem(WS.str(), "parent must precede the loop (preorder)");
    }
  double Loads = 0, Stores = 0;
  if (Counts)
    for (size_t I = 0; I != Counts->Items.size(); ++I) {
      std::ostringstream WS;
      WS << Where << " counts[" << I << "]";
      const JValue &E = Counts->Items[I];
      if (E.K != JValue::Object) {
        C.problem(WS.str(), "not an object");
        continue;
      }
      C.need(E, WS.str(), "function", JValue::String);
      C.need(E, WS.str(), "tag", JValue::String);
      C.need(E, WS.str(), "kind", JValue::String);
      const JValue *F = nullptr;
      if (C.need(E, WS.str(), "loop", JValue::Number, &F) && Loops &&
          F->Num >= static_cast<double>(Loops->Items.size()))
        C.problem(WS.str(), "loop index out of range");
      if (C.need(E, WS.str(), "loads", JValue::Number, &F))
        Loads += F->Num;
      if (C.need(E, WS.str(), "stores", JValue::Number, &F))
        Stores += F->Num;
    }
  // The profiler's core invariant: per-tag counts partition the totals.
  if (TotalLoads && Loads != TotalLoads->Num)
    C.problem(Where, "counts' loads do not sum to total_loads");
  if (TotalStores && Stores != TotalStores->Num)
    C.problem(Where, "counts' stores do not sum to total_stores");
}

/// Reads and parses a whole-file JSON object (trace, timing).
int parseWholeFile(const std::string &Text, const char *What, JValue &V) {
  JParser P(Text);
  if (!P.parse(V) || !P.atEnd()) {
    std::fprintf(stderr, "rpjson: %s: %s\n", What,
                 P.Error.empty() ? "trailing garbage after value"
                                 : P.Error.c_str());
    return 1;
  }
  if (V.K != JValue::Object) {
    std::fprintf(stderr, "rpjson: %s: top-level value is not an object\n",
                 What);
    return 1;
  }
  return 0;
}

int finish(Checker &C, const char *What, size_t N) {
  for (size_t I = 0; I != C.Problems.size() && I != 10; ++I)
    std::fprintf(stderr, "rpjson: %s\n", C.Problems[I].c_str());
  if (C.Problems.size() > 10)
    std::fprintf(stderr, "rpjson: ... and %zu more problem(s)\n",
                 C.Problems.size() - 10);
  if (!C.Problems.empty())
    return 1;
  std::fprintf(stderr, "rpjson: %s ok (%zu object(s))\n", What, N);
  return 0;
}

int checkTrace(const std::string &Text, bool Canon) {
  JValue V;
  if (int Rc = parseWholeFile(Text, "trace", V))
    return Rc;
  Checker C;
  const JValue *Events = nullptr;
  C.need(V, "trace", "traceEvents", JValue::Array, &Events);
  C.need(V, "trace", "displayTimeUnit", JValue::String);
  std::vector<std::string> CanonLines;
  if (Events)
    for (size_t I = 0; I != Events->Items.size(); ++I) {
      std::ostringstream WS;
      WS << "trace event " << I;
      const JValue &E = Events->Items[I];
      if (E.K != JValue::Object) {
        C.problem(WS.str(), "not an object");
        continue;
      }
      const JValue *Name = nullptr, *Cat = nullptr, *Ph = nullptr;
      const JValue *Args = nullptr;
      C.need(E, WS.str(), "name", JValue::String, &Name);
      C.need(E, WS.str(), "cat", JValue::String, &Cat);
      if (C.need(E, WS.str(), "ph", JValue::String, &Ph) &&
          Ph->Str != "X")
        C.problem(WS.str(), "ph must be \"X\" (complete span)");
      C.need(E, WS.str(), "ts", JValue::Number);
      C.need(E, WS.str(), "dur", JValue::Number);
      C.need(E, WS.str(), "pid", JValue::Number);
      C.need(E, WS.str(), "tid", JValue::Number);
      std::string Flat;
      if ((Args = E.field("args"))) {
        if (Args->K != JValue::Object) {
          C.problem(WS.str(), "args is not an object");
        } else {
          for (const auto &M : Args->Members) {
            if (M.second.K != JValue::String)
              C.problem(WS.str(),
                        "args value for '" + M.first + "' is not a string");
            else
              Flat += "\x1f" + M.first + "=" + M.second.Str;
          }
        }
      }
      if (Canon && Name && Cat)
        CanonLines.push_back(Cat->Str + "\x1e" + Name->Str + Flat);
    }
  if (Canon && C.Problems.empty()) {
    // The deterministic skeleton: wall-clock fields dropped, events
    // sorted. Two runs of the same workload canonicalize identically no
    // matter the timing or worker count.
    std::sort(CanonLines.begin(), CanonLines.end());
    for (const std::string &L : CanonLines) {
      std::string Printable = L;
      std::replace(Printable.begin(), Printable.end(), '\x1e', '|');
      std::replace(Printable.begin(), Printable.end(), '\x1f', ';');
      std::printf("%s\n", Printable.c_str());
    }
    return 0;
  }
  return finish(C, "trace", Events ? Events->Items.size() : 0);
}

int checkTiming(const std::string &Text) {
  JValue V;
  if (int Rc = parseWholeFile(Text, "timing", V))
    return Rc;
  Checker C;
  C.need(V, "timing", "compiles", JValue::Number);
  C.need(V, "timing", "compile_ms", JValue::Number);
  C.need(V, "timing", "interp_ms", JValue::Number);
  C.need(V, "timing", "interp_steps", JValue::Number);
  C.need(V, "timing", "frontend_ms", JValue::Number);
  C.need(V, "timing", "suffix_ms", JValue::Number);
  C.need(V, "timing", "cache_hits", JValue::Number);
  C.need(V, "timing", "cache_misses", JValue::Number);
  C.need(V, "timing", "pool_items", JValue::Number);
  C.need(V, "timing", "pool_busy_ms", JValue::Number);
  C.need(V, "timing", "engine", JValue::String);
  // "jobs" is optional: present only for sandboxed runs (a JobLog
  // rendering), absent — not empty — otherwise.
  if (const JValue *Jobs = V.field("jobs")) {
    if (Jobs->K != JValue::Array) {
      C.problem("timing", "key 'jobs' has wrong type");
    } else {
      static const std::vector<const char *> Statuses = {
          "ok", "trap", "timeout", "oom", "crash", "internal-error"};
      for (size_t I = 0; I != Jobs->Items.size(); ++I) {
        std::ostringstream WS;
        WS << "timing jobs[" << I << "]";
        const JValue &J = Jobs->Items[I];
        if (J.K != JValue::Object) {
          C.problem(WS.str(), "not an object");
          continue;
        }
        C.need(J, WS.str(), "name", JValue::String);
        const JValue *St = nullptr;
        if (C.need(J, WS.str(), "status", JValue::String, &St))
          C.oneOf(WS.str(), "status", St->Str, Statuses);
        C.need(J, WS.str(), "signal", JValue::Number);
        C.need(J, WS.str(), "wall_ms", JValue::Number);
        const JValue *At = nullptr;
        if (C.need(J, WS.str(), "attempts", JValue::Number, &At) &&
            At->Num < 1)
          C.problem(WS.str(), "attempts must be at least 1");
      }
    }
  }
  const JValue *Passes = nullptr;
  if (C.need(V, "timing", "passes", JValue::Array, &Passes))
    for (size_t I = 0; I != Passes->Items.size(); ++I) {
      std::ostringstream WS;
      WS << "timing passes[" << I << "]";
      const JValue &P = Passes->Items[I];
      if (P.K != JValue::Object) {
        C.problem(WS.str(), "not an object");
        continue;
      }
      C.need(P, WS.str(), "name", JValue::String);
      C.need(P, WS.str(), "calls", JValue::Number);
      C.need(P, WS.str(), "ms", JValue::Number);
      C.need(P, WS.str(), "ops_before", JValue::Number);
      C.need(P, WS.str(), "ops_after", JValue::Number);
    }
  return finish(C, "timing", Passes ? Passes->Items.size() : 0);
}

//===----------------------------------------------------------------------===//
// Metrics registry JSON (--metrics-json)
//===----------------------------------------------------------------------===//

/// Registry metric names: lowercase dotted words, e.g. "pool.task_wait_us".
bool validMetricName(const std::string &N) {
  if (N.empty() || !(N[0] >= 'a' && N[0] <= 'z'))
    return false;
  for (char C : N)
    if (!((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '.' ||
          C == '_'))
      return false;
  return true;
}

/// Renders a parsed JSON number the way the emitter wrote it: integers
/// without a decimal point (every registry value is a uint64 that survives
/// the double round-trip), anything else via %g.
std::string renderNum(const JValue *V) {
  if (!V)
    return "?";
  long long N = static_cast<long long>(V->Num);
  if (static_cast<double>(N) == V->Num)
    return std::to_string(N);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V->Num);
  return Buf;
}

int checkMetrics(const std::string &Text, bool Canon) {
  JValue V;
  if (int Rc = parseWholeFile(Text, "metrics", V))
    return Rc;
  Checker C;
  const JValue *F = nullptr;
  if (C.need(V, "metrics", "schema", JValue::String, &F) &&
      F->Str != "metrics")
    C.problem("metrics", "schema must be \"metrics\"");
  C.need(V, "metrics", "wall_ms", JValue::Number);
  const JValue *List = nullptr;
  C.need(V, "metrics", "metrics", JValue::Array, &List);
  std::string PrevKey;
  std::vector<std::string> CanonLines;
  if (List)
    for (size_t I = 0; I != List->Items.size(); ++I) {
      std::ostringstream WS;
      WS << "metric " << I;
      std::string Where = WS.str();
      const JValue &M = List->Items[I];
      if (M.K != JValue::Object) {
        C.problem(Where, "not an object");
        continue;
      }
      const JValue *Name = nullptr, *Labels = nullptr;
      const JValue *Kind = nullptr, *Stab = nullptr;
      if (C.need(M, Where, "name", JValue::String, &Name) &&
          !validMetricName(Name->Str))
        C.problem(Where, "name '" + Name->Str +
                             "' has characters outside [a-z0-9._]");
      std::string LabelsFlat;
      if (C.need(M, Where, "labels", JValue::Object, &Labels))
        for (const auto &KV : Labels->Members) {
          if (KV.second.K != JValue::String)
            C.problem(Where, "label '" + KV.first + "' is not a string");
          else
            LabelsFlat += "\x1f" + KV.first + "=" + KV.second.Str;
        }
      if (C.need(M, Where, "kind", JValue::String, &Kind))
        C.oneOf(Where, "kind", Kind->Str,
                {"counter", "gauge", "histogram"});
      if (C.need(M, Where, "stability", JValue::String, &Stab))
        C.oneOf(Where, "stability", Stab->Str,
                {"stable", "count-stable", "volatile"});
      C.need(M, Where, "unit", JValue::String);
      C.need(M, Where, "help", JValue::String);
      if (Kind && Kind->Str == "histogram") {
        const JValue *Count = nullptr, *Buckets = nullptr;
        C.need(M, Where, "count", JValue::Number, &Count);
        C.need(M, Where, "sum", JValue::Number);
        if (C.need(M, Where, "buckets", JValue::Array, &Buckets)) {
          if (Buckets->Items.size() != 65)
            C.problem(Where, "buckets must have exactly 65 entries");
          double Total = 0;
          bool AllNum = true;
          for (const JValue &B : Buckets->Items) {
            if (B.K != JValue::Number || B.Num < 0) {
              AllNum = false;
              break;
            }
            Total += B.Num;
          }
          if (!AllNum)
            C.problem(Where, "buckets must be non-negative numbers");
          else if (Count && Total != Count->Num)
            C.problem(Where, "buckets do not sum to count");
        }
      } else if (Kind) {
        C.need(M, Where, "value", JValue::Number);
      }
      // The emitter walks a map keyed (name, labels), so the array must be
      // strictly sorted by that composite key — this is what makes the
      // file diffable at all.
      if (Name) {
        std::string Key = Name->Str + LabelsFlat;
        if (I && Key <= PrevKey)
          C.problem(Where,
                    "metrics are not sorted by (name, labels), or duplicate");
        PrevKey = Key;
      }
      if (Canon && Name && Stab && Stab->Str != "volatile") {
        // Mirrors rpcc::metricsCanon: the run-invariant projection.
        std::string L = Name->Str;
        if (Labels && !Labels->Members.empty()) {
          L += "{";
          bool First = true;
          for (const auto &KV : Labels->Members) {
            if (!First)
              L += ",";
            First = false;
            L += KV.first + "=" + KV.second.Str;
          }
          L += "}";
        }
        if (Kind && Kind->Str == "histogram") {
          L += " count=" + renderNum(M.field("count"));
          if (Stab->Str == "stable") {
            L += " sum=" + renderNum(M.field("sum")) + " buckets=";
            const JValue *Buckets = M.field("buckets");
            bool First = true;
            if (Buckets)
              for (size_t B = 0; B != Buckets->Items.size(); ++B) {
                if (Buckets->Items[B].Num == 0)
                  continue;
                if (!First)
                  L += ",";
                First = false;
                L += std::to_string(B) + ":" +
                     renderNum(&Buckets->Items[B]);
              }
            if (First)
              L += "-";
          }
        } else {
          L += " " + renderNum(M.field("value"));
        }
        CanonLines.push_back(L);
      }
    }
  if (Canon && C.Problems.empty()) {
    for (const std::string &L : CanonLines)
      std::printf("%s\n", L.c_str());
    return 0;
  }
  return finish(C, "metrics", List ? List->Items.size() : 0);
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (--metrics-prom)
//===----------------------------------------------------------------------===//

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool validPromName(const std::string &N) {
  auto Alpha = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == ':';
  };
  if (N.empty() || !Alpha(N[0]))
    return false;
  for (char C : N)
    if (!Alpha(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

int checkProm(const std::string &Text) {
  Checker C;
  std::map<std::string, std::string> Types; ///< family -> TYPE token
  std::map<std::string, bool> Helped;       ///< family -> HELP seen
  size_t Samples = 0, LineNo = 0, Pos = 0;

  // Histogram families are checked as a streaming state machine: their
  // samples are contiguous (_bucket* then _sum then _count), cumulative
  // bucket counts must be monotone over strictly increasing le bounds, the
  // last bucket must be le="+Inf", and _count must equal it.
  struct HistState {
    std::string Family;
    double LastLe = 0, LastBucket = 0, InfVal = 0, CountVal = 0;
    bool HaveBucket = false, SawInf = false, SawSum = false,
         SawCount = false;
  } H;
  auto finishHist = [&]() {
    if (H.Family.empty())
      return;
    std::string Where = "prom family " + H.Family;
    if (!H.SawInf)
      C.problem(Where, "histogram has no le=\"+Inf\" bucket");
    if (!H.SawSum)
      C.problem(Where, "histogram has no _sum sample");
    if (!H.SawCount)
      C.problem(Where, "histogram has no _count sample");
    else if (H.SawInf && H.CountVal != H.InfVal)
      C.problem(Where, "_count does not equal the +Inf bucket");
    H = HistState();
  };

  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    std::ostringstream WS;
    WS << "prom line " << LineNo;
    std::string Where = WS.str();
    if (Line.empty())
      continue;

    if (Line.compare(0, 7, "# HELP ") == 0 ||
        Line.compare(0, 7, "# TYPE ") == 0) {
      bool IsType = Line[2] == 'T';
      size_t Sp = Line.find(' ', 7);
      std::string Name =
          Line.substr(7, Sp == std::string::npos ? std::string::npos
                                                 : Sp - 7);
      if (!validPromName(Name))
        C.problem(Where, "bad metric name '" + Name + "'");
      if (Sp == std::string::npos || Sp + 1 >= Line.size())
        C.problem(Where, IsType ? "TYPE without a type" : "HELP without text");
      else if (IsType) {
        std::string T = Line.substr(Sp + 1);
        if (T != "counter" && T != "gauge" && T != "histogram")
          C.problem(Where, "unknown type '" + T + "'");
        if (Types.count(Name))
          C.problem(Where, "duplicate TYPE for '" + Name + "'");
        Types[Name] = T;
      } else {
        if (Helped.count(Name) && Helped[Name])
          C.problem(Where, "duplicate HELP for '" + Name + "'");
        Helped[Name] = true;
      }
      continue;
    }
    if (Line[0] == '#')
      continue; // other comments are legal and unchecked

    // A sample: name[{labels}] value.
    size_t NameEnd = Line.find_first_of("{ ");
    if (NameEnd == std::string::npos) {
      C.problem(Where, "sample has no value");
      continue;
    }
    std::string Name = Line.substr(0, NameEnd);
    if (!validPromName(Name))
      C.problem(Where, "bad metric name '" + Name + "'");
    std::string Le;
    bool HasLe = false, BadLabels = false;
    size_t ValPos = NameEnd;
    if (Line[NameEnd] == '{') {
      size_t P = NameEnd + 1;
      while (P < Line.size() && Line[P] != '}') {
        size_t Eq = Line.find('=', P);
        if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
            Line[Eq + 1] != '"') {
          C.problem(Where, "malformed label");
          BadLabels = true;
          break;
        }
        std::string Key = Line.substr(P, Eq - P);
        std::string Val;
        size_t Q = Eq + 2;
        while (Q < Line.size() && Line[Q] != '"') {
          if (Line[Q] == '\\' && Q + 1 < Line.size()) {
            Val += Line[Q + 1] == 'n' ? '\n' : Line[Q + 1];
            Q += 2;
          } else {
            Val += Line[Q++];
          }
        }
        if (Q >= Line.size()) {
          C.problem(Where, "unterminated label value");
          BadLabels = true;
          break;
        }
        if (Key == "le") {
          Le = Val;
          HasLe = true;
        }
        P = Q + 1;
        if (P < Line.size() && Line[P] == ',')
          ++P;
      }
      if (BadLabels)
        continue;
      if (P >= Line.size() || Line[P] != '}') {
        C.problem(Where, "unterminated label set");
        continue;
      }
      ValPos = P + 1;
    }
    if (ValPos >= Line.size() || Line[ValPos] != ' ') {
      C.problem(Where, "sample has no value");
      continue;
    }
    const char *VS = Line.c_str() + ValPos + 1;
    char *End = nullptr;
    double Val = std::strtod(VS, &End);
    if (End == VS || *End) {
      C.problem(Where, "malformed sample value");
      continue;
    }
    ++Samples;

    // Histogram series samples belong to the base family.
    std::string Family = Name;
    for (const char *Suf : {"_bucket", "_sum", "_count"}) {
      size_t N = std::strlen(Suf);
      if (Name.size() > N &&
          Name.compare(Name.size() - N, N, Suf) == 0) {
        std::string Base = Name.substr(0, Name.size() - N);
        auto It = Types.find(Base);
        if (It != Types.end() && It->second == "histogram") {
          Family = Base;
          break;
        }
      }
    }
    if (!Types.count(Family))
      C.problem(Where, "sample for '" + Family +
                           "' without a preceding # TYPE");
    if (!Helped.count(Family) || !Helped[Family])
      C.problem(Where, "sample for '" + Family +
                           "' without a preceding # HELP");

    bool IsHist =
        Types.count(Family) && Types[Family] == "histogram";
    if (!IsHist || Family != H.Family)
      finishHist();
    if (IsHist) {
      H.Family = Family;
      if (Name == Family + "_bucket") {
        if (!HasLe) {
          C.problem(Where, "_bucket sample without an le label");
        } else {
          double LeV =
              Le == "+Inf" ? HUGE_VAL : std::strtod(Le.c_str(), nullptr);
          if (H.SawInf)
            C.problem(Where, "bucket after le=\"+Inf\"");
          if (H.HaveBucket && LeV <= H.LastLe)
            C.problem(Where, "le bounds not strictly increasing");
          if (H.HaveBucket && Val < H.LastBucket)
            C.problem(Where, "cumulative bucket count decreased");
          H.HaveBucket = true;
          H.LastLe = LeV;
          H.LastBucket = Val;
          if (Le == "+Inf") {
            H.SawInf = true;
            H.InfVal = Val;
          }
        }
      } else if (Name == Family + "_sum") {
        H.SawSum = true;
      } else if (Name == Family + "_count") {
        H.SawCount = true;
        H.CountVal = Val;
      } else {
        C.problem(Where,
                  "histogram sample must be _bucket, _sum, or _count");
      }
    }
  }
  finishHist();
  if (Samples == 0)
    C.Problems.push_back("prom: no samples found");
  return finish(C, "prom", Samples);
}

//===----------------------------------------------------------------------===//
// rpserved response envelopes
//===----------------------------------------------------------------------===//

/// One rpserved JSON response envelope (any endpoint). Every envelope
/// carries a status from the shared vocabulary; failure statuses carry an
/// error; artifact provenance ("key", "cached") is format-checked when
/// present. /run success bodies get their ops object checked, /suite
/// success bodies their per-program cells.
void checkServedObject(const JValue &O, const std::string &Where,
                       Checker &C) {
  static const std::vector<const char *> Statuses = {
      "ok", "error", "trap", "timeout", "oom", "crash", "internal-error"};
  static const std::vector<const char *> CachedKinds = {
      "hit", "miss", "coalesced", "bypass"};
  const JValue *St = nullptr;
  if (C.need(O, Where, "status", JValue::String, &St))
    C.oneOf(Where, "status", St->Str, Statuses);
  if (St && St->Str != "ok") {
    const JValue *Err = O.field("error");
    if (!Err || Err->K != JValue::String)
      C.problem(Where, "failure envelope without an 'error' string");
  }
  if (const JValue *Key = O.field("key")) {
    bool Good = Key->K == JValue::String && Key->Str.size() == 32;
    if (Good)
      for (char Ch : Key->Str)
        if (!((Ch >= '0' && Ch <= '9') || (Ch >= 'a' && Ch <= 'f')))
          Good = false;
    if (!Good)
      C.problem(Where, "key is not 32 lowercase hex characters");
  }
  if (const JValue *Cached = O.field("cached")) {
    if (Cached->K != JValue::String)
      C.problem(Where, "key 'cached' has wrong type");
    else
      C.oneOf(Where, "cached", Cached->Str, CachedKinds);
  }
  for (const char *Num : {"wall_ms", "static_ops", "promoted_tags",
                          "rewritten_ops", "exit_code"})
    if (const JValue *N = O.field(Num))
      if (N->K != JValue::Number)
        C.problem(Where, std::string("key '") + Num + "' has wrong type");
  if (const JValue *Ops = O.field("ops")) {
    if (Ops->K != JValue::Object) {
      C.problem(Where, "key 'ops' has wrong type");
    } else {
      C.need(*Ops, Where + " ops", "total", JValue::Number);
      C.need(*Ops, Where + " ops", "loads", JValue::Number);
      C.need(*Ops, Where + " ops", "stores", JValue::Number);
    }
  }
  if (const JValue *Programs = O.field("programs")) {
    if (Programs->K != JValue::Array) {
      C.problem(Where, "key 'programs' has wrong type");
      return;
    }
    for (size_t I = 0; I != Programs->Items.size(); ++I) {
      std::ostringstream WS;
      WS << Where << " programs[" << I << "]";
      const JValue &P = Programs->Items[I];
      if (P.K != JValue::Object) {
        C.problem(WS.str(), "not an object");
        continue;
      }
      C.need(P, WS.str(), "name", JValue::String);
      const JValue *Cells = nullptr;
      if (!C.need(P, WS.str(), "cells", JValue::Array, &Cells))
        continue;
      if (Cells->Items.size() != 4)
        C.problem(WS.str(), "cells must have exactly 4 entries (2x2)");
      for (size_t J = 0; J != Cells->Items.size(); ++J) {
        std::ostringstream CS;
        CS << WS.str() << " cells[" << J << "]";
        const JValue &Cell = Cells->Items[J];
        if (Cell.K != JValue::Object) {
          C.problem(CS.str(), "not an object");
          continue;
        }
        C.need(Cell, CS.str(), "cell", JValue::String);
        const JValue *Ok = nullptr;
        C.need(Cell, CS.str(), "ok", JValue::Bool, &Ok);
        C.need(Cell, CS.str(), "child", JValue::String);
        if (Ok && Ok->B) {
          C.need(Cell, CS.str(), "total", JValue::Number);
          C.need(Cell, CS.str(), "loads", JValue::Number);
          C.need(Cell, CS.str(), "stores", JValue::Number);
        } else if (Ok) {
          C.need(Cell, CS.str(), "error", JValue::String);
        }
      }
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 3) {
    std::fputs("usage: rpjson remarks|profile|trace|timing|canon|metrics|"
               "prom|metrics-canon|served FILE\n",
               stderr);
    return 2;
  }
  const char *Cmd = argv[1];
  std::ifstream In(argv[2], std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "rpjson: cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();

  if (std::strcmp(Cmd, "remarks") == 0)
    return checkJsonLines(Text, "remarks", checkRemarkObject);
  if (std::strcmp(Cmd, "profile") == 0)
    return checkJsonLines(Text, "profile", checkProfileObject);
  if (std::strcmp(Cmd, "trace") == 0)
    return checkTrace(Text, false);
  if (std::strcmp(Cmd, "canon") == 0)
    return checkTrace(Text, true);
  if (std::strcmp(Cmd, "timing") == 0)
    return checkTiming(Text);
  if (std::strcmp(Cmd, "metrics") == 0)
    return checkMetrics(Text, false);
  if (std::strcmp(Cmd, "metrics-canon") == 0)
    return checkMetrics(Text, true);
  if (std::strcmp(Cmd, "prom") == 0)
    return checkProm(Text);
  if (std::strcmp(Cmd, "served") == 0)
    return checkJsonLines(Text, "served", checkServedObject);
  std::fprintf(stderr, "rpjson: unknown command '%s'\n", Cmd);
  return 2;
}
