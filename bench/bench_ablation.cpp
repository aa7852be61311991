// Ablation harness for the design choices DESIGN.md calls out:
//
//  A1 sugaring         — what the auto duplicator/voider pass contributes:
//                        DRC violations it prevents and its compile-time
//                        cost, per TPC-H query.
//  A2 strict typing    — how many connections the strict named-equality DRC
//                        would wave through if it only checked structure
//                        (i.e. the error class the paper's rule exists to
//                        catch), measured by compiling Q19 with its
//                        @structural annotations stripped.
//  A3 stdlib RTL       — the share of the generated VHDL contributed by the
//                        hard-coded standard-library bodies (Sec. IV-C)
//                        versus pure structure: VHDL LoC with the generator
//                        enabled vs black boxes only.
//
// Exits non-zero when a printed shape fails: a sugared design compiles with
// 0 port-use violations, stripping @structural from Q19 lets the strict DRC
// catch at least one type-equality violation, and the stdlib RTL generator
// adds VHDL lines to every query.
#include <chrono>
#include <iostream>

#include "src/support/text.hpp"
#include "src/tpch/tpch.hpp"

namespace {

double time_compile(const tydi::tpch::QueryCase& q, bool sugaring) {
  auto start = std::chrono::steady_clock::now();
  tydi::driver::CompileOptions options;
  options.top = q.top_impl;
  options.sugaring = sugaring;
  options.drc.port_use_count_is_error = false;
  std::vector<tydi::driver::NamedSource> sources = {
      {"fletcher.td", tydi::tpch::fletcher_source()},
      {"q.td", std::string(q.source)}};
  auto result = tydi::driver::compile(sources, options);
  auto end = std::chrono::steady_clock::now();
  (void)result;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  bool shape_ok = true;
  std::cout << "=== A1: sugaring ablation (per query) ===\n\n";
  tydi::support::TextTable a1;
  a1.header({"Query", "violations w/o sugar", "violations w/ sugar",
             "components inserted", "compile ms (on)", "compile ms (off)"});
  for (const auto& q : tydi::tpch::queries()) {
    if (!q.sugaring) continue;  // the manual Q1 needs no sugaring by design
    tydi::driver::CompileOptions with;
    with.top = q.top_impl;
    std::vector<tydi::driver::NamedSource> sources = {
        {"fletcher.td", tydi::tpch::fletcher_source()},
        {"q.td", std::string(q.source)}};
    auto sugared = tydi::driver::compile(sources, with);

    tydi::driver::CompileOptions without = with;
    without.sugaring = false;
    without.drc.port_use_count_is_error = false;
    auto raw = tydi::driver::compile(sources, without);

    const std::size_t sugared_violations =
        sugared.drc_report.count(tydi::drc::Rule::kPortUseCount);
    shape_ok = shape_ok && sugared.success() && sugared_violations == 0;
    a1.row({q.id,
            std::to_string(
                raw.drc_report.count(tydi::drc::Rule::kPortUseCount)),
            std::to_string(sugared_violations),
            std::to_string(sugared.sugar_stats.duplicators_inserted +
                           sugared.sugar_stats.voiders_inserted),
            tydi::support::format_fixed(time_compile(q, true), 2),
            tydi::support::format_fixed(time_compile(q, false), 2)});
  }
  std::cout << a1.render() << "\n";

  std::cout << "=== A2: strict type-equality ablation ===\n\n";
  // Strip the @structural escape hatches from Q19: every one of those
  // connections is exactly the class of error strict checking catches
  // (same bit widths, different named types).
  const tydi::tpch::QueryCase* q19 = tydi::tpch::find_query("TPC-H 19");
  shape_ok = shape_ok && q19 != nullptr;
  if (q19 != nullptr) {
    std::string stripped(q19->source);
    std::size_t removed = 0;
    const std::string needle = " @structural";
    for (std::size_t pos = stripped.find(needle); pos != std::string::npos;
         pos = stripped.find(needle)) {
      stripped.erase(pos, needle.size());
      ++removed;
    }
    tydi::driver::CompileOptions options;
    options.top = q19->top_impl;
    options.emit_vhdl = false;
    std::vector<tydi::driver::NamedSource> sources = {
        {"fletcher.td", tydi::tpch::fletcher_source()},
        {"q.td", stripped}};
    auto result = tydi::driver::compile(sources, options);
    std::size_t caught =
        result.drc_report.count(tydi::drc::Rule::kTypeEquality);
    shape_ok = shape_ok && removed > 0 && caught > 0;
    std::cout << "Q19 @structural annotations stripped: " << removed << "\n";
    std::cout << "strict DRC violations caught:         " << caught << "\n";
    std::cout << "(structurally these connections are bit-identical; only "
                 "named equality flags them)\n\n";
  }

  std::cout << "=== A3: stdlib RTL generator share of the VHDL ===\n\n";
  tydi::support::TextTable a3;
  a3.header({"Query", "VHDL LoC (stdlib RTL)", "VHDL LoC (black boxes)",
             "RTL share"});
  for (const auto& q : tydi::tpch::queries()) {
    if (!q.sugaring) continue;
    std::vector<tydi::driver::NamedSource> sources = {
        {"fletcher.td", tydi::tpch::fletcher_source()},
        {"q.td", std::string(q.source)}};
    tydi::driver::CompileOptions with;
    with.top = q.top_impl;
    auto rtl = tydi::driver::compile(sources, with);
    tydi::driver::CompileOptions without = with;
    without.vhdl.generate_stdlib_rtl = false;
    auto boxes = tydi::driver::compile(sources, without);
    std::size_t rtl_loc = tydi::support::count_vhdl_loc(rtl.vhdl_text);
    std::size_t box_loc = tydi::support::count_vhdl_loc(boxes.vhdl_text);
    double share =
        rtl_loc > 0
            ? 100.0 * (1.0 - static_cast<double>(box_loc) /
                                 static_cast<double>(rtl_loc))
            : 0.0;
    shape_ok = shape_ok && rtl.success() && boxes.success() &&
               rtl_loc > box_loc;
    a3.row({q.id, std::to_string(rtl_loc), std::to_string(box_loc),
            tydi::support::format_fixed(share, 1) + " %"});
  }
  std::cout << a3.render() << "\nshape checks: "
            << (shape_ok ? "all hold" : "FAILED") << "\n";
  return shape_ok ? 0 : 1;
}
