#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/contracts.h"

namespace canids::util {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "5"});
  table.add_row({"detection", "91.0%"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_NE(text.find("| detection | 91.0% |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|---"), std::string::npos);
}

TEST(TableTest, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only"}), ContractViolation);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(TableTest, PercentFormatsRatio) {
  EXPECT_EQ(Table::percent(0.912, 1), "91.2%");
  EXPECT_EQ(Table::percent(1.0, 0), "100%");
  EXPECT_EQ(Table::percent(0.9997, 2), "99.97%");
}

TEST(BannerTest, ContainsTitle) {
  std::ostringstream out;
  print_banner(out, "Table I");
  EXPECT_NE(out.str().find("Table I"), std::string::npos);
  EXPECT_NE(out.str().find("===="), std::string::npos);
}

}  // namespace
}  // namespace canids::util
