#pragma once

#include <string>
#include <vector>

#include "ntco/common/contracts.hpp"

/// \file table.hpp
/// Aligned plain-text table rendering. Every bench binary reports its
/// experiment through this so that tables in EXPERIMENTS.md are regenerated
/// verbatim by `for b in build/bench/*; do $b; done`.

namespace ntco::stats {

/// Column-aligned text table with an optional title and caption.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    NTCO_EXPECTS(!headers_.empty());
  }

  /// Adds a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells) {
    NTCO_EXPECTS(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
  }

  void set_title(std::string title) { title_ = std::move(title); }
  void set_caption(std::string caption) { caption_ = std::move(caption); }

  /// Renders with column alignment, a header separator, and the title and
  /// caption if set.
  [[nodiscard]] std::string render() const;

  /// Renders as comma-separated values (headers first), for plotting.
  [[nodiscard]] std::string render_csv() const;

  /// Renders as JSON Lines: one object per data row, keyed by header, all
  /// values as strings (cells keep their formatted precision). The title is
  /// included as a "table" key when set.
  [[nodiscard]] std::string render_jsonl() const;

 private:
  std::string title_;
  std::string caption_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision numeric cell helpers.
[[nodiscard]] std::string cell(double v, int precision = 2);
[[nodiscard]] std::string cell_pct(double fraction, int precision = 1);

}  // namespace ntco::stats
