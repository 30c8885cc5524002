#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/jsonio.h"

namespace xr::core {
namespace {

/// The scenarios a grid base can be: factories and the example workloads.
std::vector<std::pair<std::string, ScenarioConfig>> corpus() {
  return {
      {"local", make_local_scenario(300, 1.0)},
      {"remote", make_remote_scenario(700, 3.0)},
      {"autonomous_driving", make_autonomous_driving_scenario()},
      {"multiplayer_game", make_multiplayer_game_scenario()},
      {"handoff_mobility", make_handoff_mobility_scenario(2.0, 0.5)},
  };
}

TEST(ScenarioJson, RoundTrippedScenarioEvaluatesBitwiseIdentical) {
  const XrPerformanceModel model;
  for (const auto& [name, original] : corpus()) {
    const ScenarioConfig back =
        scenario_from_json(Json::parse(to_json(original).dump()));
    const PerformanceReport a = model.evaluate(original);
    const PerformanceReport b = model.evaluate(back);
    // Bitwise identity of the full report — every latency/energy breakdown
    // field and every sensor's AoI/RoI — via the exact serialization.
    EXPECT_EQ(to_json(a).dump(), to_json(b).dump()) << name;
  }
}

TEST(ScenarioJson, SerializationIsDeterministic) {
  for (const auto& [name, s] : corpus()) {
    const std::string text = to_json(s).dump();
    const ScenarioConfig back = scenario_from_json(Json::parse(text));
    EXPECT_EQ(to_json(back).dump(), text) << name;
  }
}

TEST(ScenarioJson, UnusualFieldValuesSurviveTheTrip) {
  ScenarioConfig s = make_remote_scenario();
  s.frame.raw_frame_mb = 1.0 / 3.0;     // explicit size (not the sentinel)
  s.frame.volumetric_mb = -1.0;         // derive-from-geometry sentinel
  s.inference.encoded_size = 123.456789012345678;
  s.inference.edges[0].resource = -1.0;  // derive-from-client sentinel
  s.mobility.enabled = true;
  s.mobility.handoff.service_migration_ms = 17.25;
  s.cooperation.active = true;
  s.cooperation.include_in_total = true;
  s.codec.quantization = 31.5;
  const ScenarioConfig back =
      scenario_from_json(Json::parse(to_json(s).dump()));
  EXPECT_EQ(back.frame.raw_frame_mb, s.frame.raw_frame_mb);
  EXPECT_EQ(back.frame.volumetric_mb, s.frame.volumetric_mb);
  EXPECT_EQ(back.inference.encoded_size, s.inference.encoded_size);
  EXPECT_EQ(back.inference.edges[0].resource, -1.0);
  EXPECT_TRUE(back.mobility.enabled);
  EXPECT_EQ(back.mobility.handoff.service_migration_ms, 17.25);
  EXPECT_TRUE(back.cooperation.include_in_total);
  EXPECT_EQ(back.codec.quantization, 31.5);
}

TEST(ScenarioJson, CompleteDocumentsOnly) {
  Json j = to_json(make_local_scenario());
  // A scenario document is complete, not a patch: dropping a member fails.
  Json partial = Json::object();
  for (const auto& [key, value] : j.as_object())
    if (key != "buffer") partial.set(key, value);
  EXPECT_THROW((void)scenario_from_json(partial), std::invalid_argument);
  EXPECT_THROW((void)scenario_from_json(Json::object()),
               std::invalid_argument);
}

TEST(ReportJson, RoundTripsBitwise) {
  const XrPerformanceModel model;
  const PerformanceReport report =
      model.evaluate(make_autonomous_driving_scenario());
  const PerformanceReport back =
      report_from_json(Json::parse(to_json(report).dump()));
  EXPECT_EQ(to_json(back).dump(), to_json(report).dump());
  ASSERT_EQ(back.sensors.size(), report.sensors.size());
  EXPECT_EQ(back.sensors[0].average_aoi_ms, report.sensors[0].average_aoi_ms);
  EXPECT_EQ(back.latency.total, report.latency.total);
  EXPECT_EQ(back.energy.total, report.energy.total);
}

TEST(JsonNumbers, RoundTripExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           2.5e-17,
                           123456789.123456789,
                           -0.0,
                           5e-324,  // smallest denormal
                           1.7976931348623157e308};
  for (double v : values) {
    const double back = parse_double(format_double(v));
    EXPECT_EQ(back, v);
    EXPECT_EQ(std::signbit(back), std::signbit(v));
  }
}

TEST(JsonParse, RejectsDuplicateKeys) {
  // A key given twice in one object is an error naming it, at the top
  // level and nested; the same key in sibling objects is not.
  struct Case {
    const char* text;
    const char* key;
  };
  for (const Case c : {Case{R"({"a":1,"b":2,"a":3})", "a"},
                       Case{R"({"outer":{"kind":"x","n":0,"n":0}})", "n"},
                       Case{R"([{"a":1},{"b":1,"b":{}}])", "b"}}) {
    SCOPED_TRACE(c.text);
    try {
      (void)Json::parse(c.text);
      ADD_FAILURE() << "a duplicate key parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate key '" +
                                           std::string(c.key) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  const Json ok = Json::parse(R"({"a":{"k":1},"b":{"k":2}})");
  EXPECT_EQ(ok.at("b").at("k").as_size(), 2u);
}

}  // namespace
}  // namespace xr::core
