// Named (x, y) series used to assemble paper-figure data.
//
// A SeriesSet holds several labelled curves sharing an x-axis meaning (e.g.
// "GT (1 GHz)", "Proposed (1 GHz)" for Fig. 4a) and can render them as a
// combined table.
#pragma once

#include <deque>
#include <string>
#include <vector>

namespace xr::trace {

/// One labelled curve.
struct Series {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;

  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

/// A collection of curves for a single figure.
class SeriesSet {
 public:
  SeriesSet(std::string figure_name, std::string x_label, std::string y_label);

  /// Create (or retrieve) the series with this label.
  Series& series(const std::string& label);
  [[nodiscard]] const Series* find(const std::string& label) const noexcept;
  [[nodiscard]] const std::deque<Series>& all() const noexcept {
    return series_;
  }

  [[nodiscard]] const std::string& figure_name() const noexcept {
    return name_;
  }
  [[nodiscard]] const std::string& x_label() const noexcept { return x_label_; }
  [[nodiscard]] const std::string& y_label() const noexcept { return y_label_; }

  /// Render as an aligned table: first column x, one column per series.
  /// All series must share identical x grids; throws std::logic_error if not.
  [[nodiscard]] std::string render_table(int precision = 2) const;

 private:
  std::string name_;
  std::string x_label_;
  std::string y_label_;
  std::deque<Series> series_;
};

}  // namespace xr::trace
