// Trace-file validity for the observability subsystem (common/trace.h):
// the emitted file is well-formed JSON in Chrome trace-event format, every
// begin has a matching end on the same thread, and timestamps are
// monotone. Spans are opened from 8 threads so the suite is meaningful
// under the `tsan` ctest label (-DEMAF_SANITIZE=thread build).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"

namespace emaf::obs {
namespace {

// --- Minimal JSON well-formedness checker ---------------------------------
// Recursive descent over the full grammar (objects, arrays, strings with
// escapes, numbers, literals). Returns true iff `text` is one valid JSON
// value with nothing trailing.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool Array() {
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return false;
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

#if EMAF_METRICS_ENABLED

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct ParsedEvent {
  std::string name;
  char phase = '?';
  double ts = 0.0;
  int64_t tid = -1;
};

// Extracts "key": from one event line (the writer emits one event per
// line, which the JSON checker above independently validates).
std::string ExtractString(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\": \"");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  pos += key.size() + 5;
  size_t end = line.find('"', pos);
  return line.substr(pos, end - pos);
}

double ExtractNumber(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\": ");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  return std::strtod(line.c_str() + pos + key.size() + 4, nullptr);
}

std::vector<ParsedEvent> ParseEvents(const std::string& contents) {
  std::vector<ParsedEvent> events;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    ParsedEvent e;
    e.name = ExtractString(line, "name");
    e.phase = ExtractString(line, "ph")[0];
    e.ts = ExtractNumber(line, "ts");
    e.tid = static_cast<int64_t>(ExtractNumber(line, "tid"));
    events.push_back(e);
  }
  return events;
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { Trace::Disable(); }
};

TEST_F(TraceTest, DisabledByDefaultAndSpansAreDropped) {
  Trace::Disable();
  EXPECT_FALSE(Trace::Enabled());
  { EMAF_TRACE_SPAN("dropped"); }
  EXPECT_TRUE(Trace::Flush().ok());  // no-op while disabled
}

TEST_F(TraceTest, EmitsWellFormedBalancedMonotoneTrace) {
  std::string path = TempPath("trace_multi.json");
  Trace::Enable(path);
  ASSERT_TRUE(Trace::Enabled());

  {
    EMAF_TRACE_SPAN("main/outer");
    {
      EMAF_TRACE_SPAN_DYN(std::string("main/inner"));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < 50; ++i) {
          ScopedSpan span("worker/" + std::to_string(t));
          ScopedSpan nested("worker_nested/" + std::to_string(t));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_TRUE(Trace::Flush().ok());

  std::string contents = ReadFile(path);
  // 1. Well-formed JSON.
  EXPECT_TRUE(JsonChecker(contents).Valid()) << contents.substr(0, 400);

  // 2. Balanced begin/end per thread, monotone global timestamps.
  std::vector<ParsedEvent> events = ParseEvents(contents);
  // 2 main spans + 8 threads * 50 iterations * 2 spans, x2 events each.
  ASSERT_EQ(events.size(), static_cast<size_t>(2 * (2 + 8 * 50 * 2)));
  double last_ts = -1.0;
  std::map<int64_t, int64_t> open_per_tid;
  for (const ParsedEvent& e : events) {
    EXPECT_GE(e.ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = e.ts;
    EXPECT_GE(e.tid, 0);
    if (e.phase == 'B') {
      ++open_per_tid[e.tid];
    } else {
      ASSERT_EQ(e.phase, 'E');
      --open_per_tid[e.tid];
      EXPECT_GE(open_per_tid[e.tid], 0)
          << "end without begin on tid " << e.tid;
    }
  }
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST_F(TraceTest, FlushClearsTheBuffer) {
  std::string path = TempPath("trace_clear.json");
  Trace::Enable(path);
  { EMAF_TRACE_SPAN("once"); }
  ASSERT_TRUE(Trace::Flush().ok());
  ASSERT_EQ(ParseEvents(ReadFile(path)).size(), 2u);
  // Nothing new buffered: a second flush must not rewrite the file.
  std::remove(path.c_str());
  ASSERT_TRUE(Trace::Flush().ok());
  std::ifstream second(path);
  EXPECT_FALSE(second.is_open());
}

TEST_F(TraceTest, NamesAreJsonEscaped) {
  std::string path = TempPath("trace_escape.json");
  Trace::Enable(path);
  { ScopedSpan span("quote\"back\\slash"); }
  ASSERT_TRUE(Trace::Flush().ok());
  std::string contents = ReadFile(path);
  EXPECT_TRUE(JsonChecker(contents).Valid()) << contents;
}

TEST_F(TraceTest, SpanActiveStateLatchedAtConstruction) {
  std::string path = TempPath("trace_latch.json");
  // Span created while disabled, destroyed while enabled: dropped.
  Trace::Disable();
  {
    ScopedSpan span("latched_out");
    Trace::Enable(path);
  }
  { ScopedSpan span("recorded"); }
  ASSERT_TRUE(Trace::Flush().ok());
  std::string contents = ReadFile(path);
  EXPECT_EQ(contents.find("latched_out"), std::string::npos);
  EXPECT_NE(contents.find("recorded"), std::string::npos);
}

TEST_F(TraceTest, ThreadIdsAreSmallAndStable) {
  int64_t id = Trace::CurrentThreadId();
  EXPECT_GE(id, 0);
  EXPECT_EQ(Trace::CurrentThreadId(), id);
}

#else  // !EMAF_METRICS_ENABLED

TEST(TraceTest, CompiledOutTracingStaysDisabled) {
  Trace::Enable("/dev/null");
  EXPECT_FALSE(Trace::Enabled());
  { EMAF_TRACE_SPAN("off"); }
  EXPECT_TRUE(Trace::Flush().ok());
}

#endif  // EMAF_METRICS_ENABLED

TEST(JsonCheckerTest, Sanity) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, "x\"y"], "b": {}})").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": ").Valid());
  EXPECT_FALSE(JsonChecker("{]").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1} trailing").Valid());
}

}  // namespace
}  // namespace emaf::obs
