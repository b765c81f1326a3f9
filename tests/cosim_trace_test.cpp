// End-to-end check of the cosim_trace merge subcommand: it runs the built
// binary over a hand-written per-process dump whose label and arg keys need
// JSON escaping, and the merged file must still parse.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "util/json.hpp"

namespace nisc::util {
namespace {

TEST(CosimTraceMergeTest, WritesValidJsonForHostileInput) {
  const std::string in = ::testing::TempDir() + "cosim_trace_in.json";
  const std::string out = ::testing::TempDir() + "cosim_trace_merged.json";
  {
    std::ofstream file(in, std::ios::binary | std::ios::trunc);
    file << R"({"traceEvents":[{"name":"e","cat":"c","ph":"i","pid":9,"tid":1,"ts":1.5,)"
         << R"("args":{"k\"q":1,"t\u0001":18446744073709551615}},)"
         << R"({"name":"far","ph":"i","tid":1,"ts":1e40},)"
         << R"({"name":"inf","ph":"i","tid":1,"ts":1e999}]})";
  }
  // Single quotes keep the shell away from the label's quote and backslash.
  const std::string label = "a\"b\\c";
  const std::string command =
      std::string(NISC_COSIM_TRACE_BIN) + " merge --out '" + out + "' '" + in + ":" + label + "'";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream file(out, std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
  const JsonValue doc = parse_json(text);
  const JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u) << text;
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), label);
  const JsonValue& event = events[1];
  EXPECT_EQ(event.at("pid").as_uint(), 1u);
  EXPECT_EQ(event.at("ts").as_double(), 1.5);
  EXPECT_EQ(event.at("args").at("k\"q").as_uint(), 1u);
  EXPECT_EQ(event.at("args").at(std::string("t\x01")).as_uint(), 18446744073709551615u);
  // A timestamp too long for fixed point keeps its value; one that overflows
  // a double has no number spelling at all.
  EXPECT_EQ(events[2].at("ts").as_double(), 1e40);
  EXPECT_TRUE(events[3].at("ts").is_null());
  EXPECT_EQ(events[3].at("pid").as_uint(), 1u);
}

}  // namespace
}  // namespace nisc::util
