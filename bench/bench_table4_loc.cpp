// Experiment E1 — regenerates **Table IV** of the paper: "LoC for
// translating TPC-H queries to Tydi-lang".
//
// For every query the harness compiles the Tydi-lang query logic together
// with the Fletcher-generated interfaces and the standard library, emits
// VHDL, counts lines of code of each part, and prints the same columns the
// paper reports (raw SQL, LoCq, LoCa, LoCvhdl, Rq = VHDL/LoCq,
// Ra = VHDL/LoCa). Paper reference values are printed alongside.
//
// Shape criteria (absolute numbers depend on the VHDL backend), each a
// check that makes the run exit non-zero when it fails:
//   - every query compiles;
//   - Q19 generates the most VHDL, Q6 the least;
//   - the non-sugared Q1 needs more Tydi-lang LoC than the sugared Q1
//     while producing the same amount of VHDL.
#include <algorithm>
#include <iostream>
#include <limits>
#include <map>

#include "src/stdlib/stdlib.hpp"
#include "src/support/text.hpp"
#include "src/tpch/tpch.hpp"

namespace {

struct PaperRow {
  std::size_t query_loc;
  std::size_t total_loc;
  std::size_t vhdl_loc;
  double rq;
  double ra;
};

const std::map<std::string, PaperRow>& paper_rows() {
  static const std::map<std::string, PaperRow> rows = {
      {"TPC-H 1 (without sugaring)", {402, 719, 7547, 18.77, 10.50}},
      {"TPC-H 1", {284, 601, 7547, 26.57, 12.56}},
      {"TPC-H 3", {166, 483, 6291, 37.90, 13.02}},
      {"TPC-H 5", {197, 514, 6992, 35.49, 13.60}},
      {"TPC-H 6", {108, 425, 4586, 42.46, 10.79}},
      {"TPC-H 19", {297, 614, 11734, 39.51, 19.11}},
  };
  return rows;
}

}  // namespace

int main() {
  std::cout << "=== Table IV: LoC for translating TPC-H queries to "
               "Tydi-lang ===\n\n";
  std::cout << "LoC Fletcher part (LoCf): measured "
            << tydi::tpch::fletcher_loc() << "  (paper: 166)\n";
  std::cout << "LoC standard library (LoCs): measured "
            << tydi::stdlib::stdlib_loc() << "  (paper: 151)\n\n";

  tydi::support::TextTable table;
  table.header({"Query", "SQL", "LoCq", "LoCa", "VHDL", "Rq", "Ra",
                "paper Rq", "paper Ra"});

  auto rows = tydi::tpch::measure_table4();
  bool all_ok = true;
  std::size_t q6_vhdl = 0;
  std::size_t q19_vhdl = 0;
  std::size_t max_vhdl = 0;
  std::size_t min_vhdl = std::numeric_limits<std::size_t>::max();
  std::size_t q1_loc = 0;
  std::size_t q1_vhdl = 0;
  std::size_t q1_nosugar_loc = 0;
  std::size_t q1_nosugar_vhdl = 0;

  for (const auto& row : rows) {
    all_ok = all_ok && row.compiled_ok;
    auto paper = paper_rows().find(row.query);
    table.row({row.query, std::to_string(row.raw_sql_loc),
               std::to_string(row.query_loc), std::to_string(row.total_loc),
               std::to_string(row.vhdl_loc),
               tydi::support::format_fixed(row.ratio_query, 2),
               tydi::support::format_fixed(row.ratio_total, 2),
               paper != paper_rows().end()
                   ? tydi::support::format_fixed(paper->second.rq, 2)
                   : "-",
               paper != paper_rows().end()
                   ? tydi::support::format_fixed(paper->second.ra, 2)
                   : "-"});
    if (row.query == "TPC-H 6") q6_vhdl = row.vhdl_loc;
    if (row.query == "TPC-H 19") q19_vhdl = row.vhdl_loc;
    if (row.query == "TPC-H 1") {
      q1_loc = row.query_loc;
      q1_vhdl = row.vhdl_loc;
    }
    if (row.query == "TPC-H 1 (without sugaring)") {
      q1_nosugar_loc = row.query_loc;
      q1_nosugar_vhdl = row.vhdl_loc;
    }
    max_vhdl = std::max(max_vhdl, row.vhdl_loc);
    min_vhdl = std::min(min_vhdl, row.vhdl_loc);
  }
  std::cout << table.render() << "\n";

  const bool most_ok = q19_vhdl == max_vhdl;
  const bool least_ok = q6_vhdl == min_vhdl;
  const bool sugar_ok =
      q1_nosugar_loc > q1_loc && q1_nosugar_vhdl == q1_vhdl;
  std::cout << "shape checks:\n";
  std::cout << "  all queries compiled: " << (all_ok ? "yes" : "NO") << "\n";
  std::cout << "  Q19 generates the most VHDL (" << q19_vhdl
            << " lines): " << (most_ok ? "yes" : "NO") << "\n";
  std::cout << "  Q6 generates the least VHDL (" << q6_vhdl
            << " lines): " << (least_ok ? "yes" : "NO") << "\n";
  std::cout << "  non-sugared Q1 costs more source (" << q1_nosugar_loc
            << " vs " << q1_loc << " LoC) for the same VHDL ("
            << q1_nosugar_vhdl << " vs " << q1_vhdl
            << " lines): " << (sugar_ok ? "yes" : "NO") << "\n";
  return all_ok && most_ok && least_ok && sugar_ok ? 0 : 1;
}
