// Tests for design I/O and the report framework.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "celllib/generator.h"
#include "netlist/design_generator.h"
#include "netlist/design_io.h"
#include "report/experiment.h"
#include "util/contracts.h"

namespace {

using namespace cny;

// ------------------------------------------------------------- design io

const celllib::Library& lib45() {
  static const celllib::Library lib = celllib::make_nangate45_like();
  return lib;
}

TEST(DesignIo, RoundTripIsLossless) {
  const auto design = netlist::make_openrisc_like(lib45());
  const auto parsed =
      netlist::from_design_text(netlist::to_design_text(design), lib45());
  EXPECT_EQ(parsed.name(), design.name());
  EXPECT_EQ(parsed.n_instances(), design.n_instances());
  EXPECT_EQ(parsed.n_transistors(), design.n_transistors());
  ASSERT_EQ(parsed.instances().size(), design.instances().size());
  for (std::size_t i = 0; i < parsed.instances().size(); ++i) {
    EXPECT_EQ(parsed.instances()[i].cell_name,
              design.instances()[i].cell_name);
    EXPECT_EQ(parsed.instances()[i].count, design.instances()[i].count);
  }
}

TEST(DesignIo, FileRoundTrip) {
  const auto design = netlist::make_openrisc_like(lib45());
  const std::string path = ::testing::TempDir() + "/design_roundtrip.txt";
  netlist::save_design(design, path);
  const auto loaded = netlist::load_design(path, lib45());
  EXPECT_EQ(loaded.n_transistors(), design.n_transistors());
}

TEST(DesignIo, RejectsLibraryMismatch) {
  const auto design = netlist::make_openrisc_like(lib45());
  const auto text = netlist::to_design_text(design);
  const auto other = celllib::make_commercial65_like();
  EXPECT_THROW((void)netlist::from_design_text(text, other),
               cny::ContractViolation);
}

TEST(DesignIo, RejectsMalformedInput) {
  EXPECT_THROW((void)netlist::from_design_text("instance INV_X1 1\n", lib45()),
               cny::ContractViolation);
  EXPECT_THROW((void)netlist::from_design_text(
                   "design \"d\" library \"nangate45_like\"\n"
                   "instance NOT_A_CELL 5\nenddesign\n",
                   lib45()),
               cny::ContractViolation);
  EXPECT_THROW((void)netlist::from_design_text(
                   "design \"d\" library \"nangate45_like\"\n", lib45()),
               cny::ContractViolation);
}

TEST(DesignIo, SkipsCommentsAndBlankLines) {
  const auto design = netlist::from_design_text(
      "# header comment\n"
      "design \"d\" library \"nangate45_like\"\n"
      "\n"
      "instance INV_X1 7\n"
      "# trailing comment\n"
      "enddesign\n",
      lib45());
  EXPECT_EQ(design.n_instances(), 7u);
}

// ------------------------------------------------------------- report

TEST(Report, RenderContainsTablesAndComparisons) {
  report::Experiment exp("unit", "unit-test experiment");
  exp.add_table("numbers").header({"a", "b"}).row({"1", "2"});
  exp.add_comparison({"quantity", "3", "3.1", "note"});
  const auto text = exp.render_text();
  EXPECT_NE(text.find("unit-test experiment"), std::string::npos);
  EXPECT_NE(text.find("| 1 | 2 |"), std::string::npos);
  EXPECT_NE(text.find("Paper vs measured"), std::string::npos);
  const auto md = exp.render_markdown();
  EXPECT_NE(md.find("## unit"), std::string::npos);
}

TEST(Report, CsvExportWritesOneFilePerTable) {
  report::Experiment exp("csvtest", "t");
  exp.add_table("one").header({"x"}).row({"1"});
  exp.add_table("two").header({"y"}).row({"2"});
  const auto paths = exp.write_csv(::testing::TempDir());
  ASSERT_EQ(paths.size(), 2u);
  std::ifstream in(paths[1]);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "y");
}

TEST(Report, RejectsEmptyId) {
  EXPECT_THROW(report::Experiment("", "t"), cny::ContractViolation);
}

}  // namespace
