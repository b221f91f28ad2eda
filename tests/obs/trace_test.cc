// TraceWriter output format and ObsSpan timing behavior.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace freqdedup::obs {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal structural JSON validation: balanced brackets/braces outside
/// strings, and nothing after the final bracket. Trace viewers use real
/// parsers; this catches the failure modes a line-oriented writer can have
/// (trailing comma, unclosed array, interleaved lines).
bool looksLikeJsonArray(const std::string& s) {
  int depth = 0;
  bool inString = false;
  bool escaped = false;
  bool closed = false;
  for (const char c : s) {
    if (closed && !std::isspace(static_cast<unsigned char>(c))) return false;
    if (inString) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      inString = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (--depth < 0) return false;
      if (depth == 0) closed = true;
    } else if (c == ',') {
      if (depth == 0) return false;
    }
  }
  return closed && depth == 0 && !inString;
}

TEST(TraceWriter, EmitsValidTraceEventArray) {
  const auto path =
      std::filesystem::temp_directory_path() / "fdd_trace_test.json";
  std::filesystem::remove(path);
  {
    TraceWriter writer(path.string());
    ASSERT_TRUE(writer.ok());
    writer.emitComplete("phase_one", "test", 10, 25);
    writer.emitComplete("phase_two", "test", 40, 5);
    writer.close();
    writer.close();  // idempotent
  }
  const std::string content = slurp(path);
  EXPECT_TRUE(looksLikeJsonArray(content)) << content;
  EXPECT_NE(content.find("\"name\":\"phase_one\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"dur\":25"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceWriter, UnopenableFileIsInertNotFatal) {
  TraceWriter writer("/nonexistent-dir/trace.json");
  EXPECT_FALSE(writer.ok());
  writer.emitComplete("a", "b", 0, 1);  // must not crash
  writer.close();
}

TEST(ObsSpan, RecordsIntoHistogram) {
  Histogram h;
  {
    ObsSpan span(&h, "scoped", "test");
  }
  ObsSpan early(&h, "early", "test");
  const uint64_t us = early.finish();
  EXPECT_EQ(early.finish(), us);  // idempotent, same duration
  EXPECT_EQ(h.data().count, 2u);
}

TEST(ObsSpan, NullHistogramCostsNothing) {
  ObsSpan span(nullptr, "free", "test");
  EXPECT_EQ(span.finish(), 0u);
}

}  // namespace
}  // namespace freqdedup::obs
