// Console table rendering for the reproduction harness. Every bench binary
// prints the paper's rows next to our measured values; this keeps the
// formatting consistent and readable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace canids::util {

/// A simple left/right-aligned ASCII table. Columns are sized to content.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; it must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double value, int precision = 3);

  /// Formats a ratio as a percentage string, e.g. 0.912 -> "91.2%".
  static std::string percent(double ratio, int precision = 1);

  /// Render with a box-drawing rule under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner, used to separate experiments in bench output.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace canids::util
