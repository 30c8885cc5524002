#include "trace/series.h"

#include <gtest/gtest.h>

#include <string>

namespace xr::trace {
namespace {

TEST(SeriesSet, CreatesAndRetrievesSeries) {
  SeriesSet set("fig", "x", "y");
  auto& a = set.series("A");
  a.add(1, 10);
  // Retrieving the same label returns the same series.
  set.series("A").add(2, 20);
  EXPECT_EQ(set.series("A").size(), 2u);
  EXPECT_EQ(set.all().size(), 1u);
}

TEST(SeriesSet, ReferencesSurviveNewSeries) {
  SeriesSet set("fig", "x", "y");
  auto& a = set.series("A");
  // Force internal growth; the old reference must stay valid.
  for (int i = 0; i < 64; ++i) {
    std::string name("s");
    name += std::to_string(i);
    set.series(name);
  }
  a.add(1, 1);
  EXPECT_EQ(set.series("A").size(), 1u);
}

TEST(SeriesSet, FindReturnsNullForUnknown) {
  SeriesSet set("fig", "x", "y");
  EXPECT_EQ(set.find("missing"), nullptr);
  set.series("here");
  EXPECT_NE(set.find("here"), nullptr);
}

TEST(SeriesSet, RenderTableContainsLabelsAndValues) {
  SeriesSet set("My Figure", "size", "ms");
  set.series("GT").add(300, 412.5);
  set.series("Proposed").add(300, 409.25);
  const auto out = set.render_table(2);
  EXPECT_NE(out.find("My Figure"), std::string::npos);
  EXPECT_NE(out.find("GT"), std::string::npos);
  EXPECT_NE(out.find("412.50"), std::string::npos);
  EXPECT_NE(out.find("409.25"), std::string::npos);
}

TEST(SeriesSet, MismatchedGridThrows) {
  SeriesSet set("fig", "x", "y");
  set.series("a").add(1, 1);
  set.series("b").add(2, 2);
  EXPECT_THROW((void)set.render_table(), std::logic_error);
}

TEST(SeriesSet, MismatchedLengthThrows) {
  SeriesSet set("fig", "x", "y");
  set.series("a").add(1, 1);
  auto& b = set.series("b");
  b.add(1, 1);
  b.add(2, 2);
  EXPECT_THROW((void)set.to_table(), std::logic_error);
}

TEST(SeriesSet, EmptyThrows) {
  SeriesSet set("fig", "x", "y");
  EXPECT_THROW((void)set.render_table(), std::logic_error);
}

TEST(SeriesSet, ToTableLayout) {
  SeriesSet set("fig", "x", "y");
  set.series("a").add(1, 10);
  set.series("a").add(2, 20);
  set.series("b").add(1, 30);
  set.series("b").add(2, 40);
  const auto table = set.to_table();
  EXPECT_EQ(table.columns(), 3u);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_DOUBLE_EQ(table.column("b")[1], 40);
}

}  // namespace
}  // namespace xr::trace
