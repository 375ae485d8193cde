#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace sep2p::sim {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n_a = static_cast<double>(count_);
  const double n_b = static_cast<double>(other.count_);
  const double n = n_a + n_b;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (n_b / n);
  m2_ += other.m2_ + delta * delta * (n_a * n_b / n);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Nearest rank: ceil(q * n), 1-based; q = 0 maps to the minimum.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, samples.size() - 1);
  // A single order statistic needs selection, not a full sort: O(n)
  // instead of O(n log n), and the answer is the identical element.
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf(" %-*s |", static_cast<int>(widths[i]), cells[i].c_str());
    }
    std::printf("\n");
  };
  auto print_rule = [&] {
    std::printf("+");
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };

  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s = buf;
  // Trim trailing zeros after the decimal point, and the point itself
  // when no digit is left after it.
  while (!s.empty() && s.find('.') != std::string::npos &&
         (s.back() == '0' || s.back() == '.')) {
    bool was_dot = s.back() == '.';
    s.pop_back();
    if (was_dot) break;
  }
  return s.empty() ? "0" : s;
}

}  // namespace sep2p::sim
