#include "trace/series.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "trace/table.h"

namespace xr::trace {

SeriesSet::SeriesSet(std::string figure_name, std::string x_label,
                     std::string y_label)
    : name_(std::move(figure_name)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {}

Series& SeriesSet::series(const std::string& label) {
  for (auto& s : series_)
    if (s.label == label) return s;
  series_.push_back(Series{label, {}, {}});
  return series_.back();
}

const Series* SeriesSet::find(const std::string& label) const noexcept {
  for (const auto& s : series_)
    if (s.label == label) return &s;
  return nullptr;
}

namespace {
void check_shared_grid(const std::deque<Series>& series) {
  if (series.empty()) throw std::logic_error("SeriesSet: no series");
  const auto& ref = series.front().x;
  for (const auto& s : series) {
    if (s.x.size() != ref.size())
      throw std::logic_error("SeriesSet: series '" + s.label +
                             "' has mismatched length");
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (std::abs(s.x[i] - ref[i]) > 1e-9)
        throw std::logic_error("SeriesSet: series '" + s.label +
                               "' has mismatched x grid");
  }
}
}  // namespace

std::string SeriesSet::render_table(int precision) const {
  check_shared_grid(series_);
  std::vector<std::string> header{x_label_};
  for (const auto& s : series_) header.push_back(s.label);
  TablePrinter printer(std::move(header));
  const auto& xs = series_.front().x;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<double> row{xs[i]};
    for (const auto& s : series_) row.push_back(s.y[i]);
    printer.add_numeric_row(row, precision);
  }
  std::ostringstream oss;
  oss << heading(name_ + "  [y: " + y_label_ + "]");
  oss << printer.render();
  return oss.str();
}

}  // namespace xr::trace
