// Tydi-IR and VHDL backend tests: lowering, deterministic emission, entity
// and architecture structure, physical signal expansion, stdlib RTL bodies,
// and black boxes.
#include <gtest/gtest.h>

#include "src/driver/compiler.hpp"
#include "src/ir/ir.hpp"
#include "src/support/text.hpp"
#include "src/vhdl/rtl_lib.hpp"
#include "src/vhdl/vhdl.hpp"

namespace tydi {
namespace {

driver::CompileResult compile(std::string_view source, const std::string& top) {
  driver::CompileOptions options;
  options.top = top;
  return driver::compile_source(std::string(source), options);
}

constexpr std::string_view kSmallDesign = R"(
type t_byte = Stream(Bit(8), d=1, c=2);
streamlet stage_s { a: t_byte in, b: t_byte out, }
impl stage of stage_s @ external { }
streamlet top_s { x: t_byte in, y: t_byte out, }
impl top of top_s {
  instance s1(stage),
  instance s2(stage),
  x => s1.a,
  s1.b => s2.a,
  s2.b => y,
}
)";

TEST(Ir, LowerCapturesEverything) {
  auto result = compile(kSmallDesign, "top");
  ASSERT_TRUE(result.success()) << result.report();
  ir::Module module = ir::lower(result.design);
  EXPECT_EQ(module.top_name, "top");
  ASSERT_NE(module.top, ir::kNoIndex);
  EXPECT_EQ(module.impls[module.top].name, "top");
  EXPECT_GE(module.streamlets.size(), 2u);
  bool found_top = false;
  for (const ir::IrImpl& impl : module.impls) {
    if (impl.name == "top") {
      found_top = true;
      EXPECT_FALSE(impl.external);
      EXPECT_EQ(impl.instances.size(), 2u);
      EXPECT_EQ(impl.connections.size(), 3u);
    }
    if (impl.name == "stage") {
      EXPECT_TRUE(impl.external);
    }
  }
  EXPECT_TRUE(found_top);
}

TEST(Ir, SymbolIndexesAndResolvedEndpoints) {
  auto result = compile(kSmallDesign, "top");
  ASSERT_TRUE(result.success()) << result.report();
  const ir::Module& module = result.ir;

  // Symbol-keyed flat lookup finds the top impl and its streamlet.
  const ir::IrImpl* top = module.find_impl(support::intern("top"));
  ASSERT_NE(top, nullptr);
  const ir::IrStreamlet* top_s = module.streamlet_of(*top);
  ASSERT_NE(top_s, nullptr);
  EXPECT_EQ(top_s->name, "top_s");
  EXPECT_EQ(top_s->port_index(support::intern("x")), 0u);
  EXPECT_EQ(top_s->port_index(support::intern("nope")), ir::kNoIndex);

  // Instances reference their impls by dense index.
  ASSERT_EQ(top->instances.size(), 2u);
  for (const ir::IrInstance& inst : top->instances) {
    ASSERT_NE(inst.impl, ir::kNoIndex);
    EXPECT_EQ(module.impls[inst.impl].name, "stage");
  }

  // Every connection endpoint was resolved at lowering time.
  for (const ir::IrConnection& c : top->connections) {
    EXPECT_TRUE(c.src.ok()) << c.src.display();
    EXPECT_TRUE(c.dst.ok()) << c.dst.display();
    EXPECT_NE(module.resolve(*top, c.src), nullptr);
    EXPECT_NE(module.resolve(*top, c.dst), nullptr);
  }
}

TEST(Ir, PortsCarryCachedPhysicalLayouts) {
  auto result = compile(kSmallDesign, "top");
  ASSERT_TRUE(result.success()) << result.report();
  const ir::IrImpl* top = result.ir.find_impl(support::intern("top"));
  ASSERT_NE(top, nullptr);
  const ir::IrStreamlet* s = result.ir.streamlet_of(*top);
  ASSERT_NE(s, nullptr);
  for (const ir::IrPort& p : s->ports) {
    ASSERT_FALSE(p.layouts.empty()) << p.name;
    const ir::StreamLayout& primary = p.layouts.front();
    EXPECT_EQ(primary.suffix, "");  // primary stream, relative naming
    EXPECT_EQ(primary.stream.data_bits, 8);
    EXPECT_FALSE(primary.signals.empty());
    EXPECT_EQ(primary.signals[0].name, "valid");
  }
}

TEST(Ir, PortsOfOneTypeShareItsLowering) {
  // A sessionless compile: both ports of stage_s are declared with the
  // named type t_byte, so they borrow the very same layouts and display.
  auto result = compile(kSmallDesign, "top");
  ASSERT_TRUE(result.success()) << result.report();
  const ir::IrStreamlet* s =
      result.ir.find_streamlet(support::intern("stage_s"));
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->ports.size(), 2u);
  const ir::IrPort& a = s->ports[0];
  const ir::IrPort& b = s->ports[1];
  ASSERT_EQ(a.type, b.type);
  ASSERT_FALSE(a.layouts.empty());
  EXPECT_EQ(a.layouts.data(), b.layouts.data());
  EXPECT_EQ(a.layouts.data(), types::lowering_of(*a.type).layouts.data());
  EXPECT_EQ(a.type_display.data(), b.type_display.data());
}

TEST(Ir, EmissionIsDeterministic) {
  auto a = compile(kSmallDesign, "top");
  auto b = compile(kSmallDesign, "top");
  EXPECT_EQ(a.ir_text, b.ir_text);
  EXPECT_EQ(a.vhdl_text, b.vhdl_text);
}

TEST(Ir, TextContainsExpectedConstructs) {
  auto result = compile(kSmallDesign, "top");
  const std::string& text = result.ir_text;
  EXPECT_NE(text.find("streamlet top_s {"), std::string::npos);
  EXPECT_NE(text.find("port x: in Stream(Bit(8), d=1, c=2)"),
            std::string::npos);
  EXPECT_NE(text.find("impl top of top_s {"), std::string::npos);
  EXPECT_NE(text.find("instance s1: stage;"), std::string::npos);
  EXPECT_NE(text.find("connect s1.b -> s2.a;"), std::string::npos);
  EXPECT_NE(text.find("external impl stage"), std::string::npos);
}

TEST(Ir, StructuralConnectionAnnotated) {
  auto result = compile(R"(
type t1 = Stream(Bit(8), d=1, c=2);
type t2 = Stream(Bit(8), d=1, c=2);
streamlet s { a: t1 in, b: t2 out, }
impl top of s {
  a => b @structural,
}
)",
                        "top");
  ASSERT_TRUE(result.success()) << result.report();
  EXPECT_NE(result.ir_text.find("@structural"), std::string::npos);
}

TEST(Vhdl, EntityHasClockResetAndExpandedSignals) {
  auto result = compile(kSmallDesign, "top");
  const std::string& vhdl = result.vhdl_text;
  EXPECT_NE(vhdl.find("entity top is"), std::string::npos);
  EXPECT_NE(vhdl.find("clk : in std_logic;"), std::string::npos);
  EXPECT_NE(vhdl.find("rst : in std_logic;"), std::string::npos);
  // Physical expansion of port x (in): valid in, ready out, data in.
  EXPECT_NE(vhdl.find("x_valid : in std_logic"), std::string::npos);
  EXPECT_NE(vhdl.find("x_ready : out std_logic"), std::string::npos);
  EXPECT_NE(vhdl.find("x_data : in std_logic_vector(7 downto 0)"),
            std::string::npos);
  // Output port direction flips.
  EXPECT_NE(vhdl.find("y_valid : out std_logic"), std::string::npos);
  EXPECT_NE(vhdl.find("y_ready : in std_logic"), std::string::npos);
}

TEST(Vhdl, DimensionAddsLastAndStrb) {
  auto result = compile(kSmallDesign, "top");
  // d=1 streams carry last (1 bit) and strb (1 bit per lane).
  EXPECT_NE(result.vhdl_text.find("x_last : in std_logic_vector(0 downto 0)"),
            std::string::npos);
  EXPECT_NE(result.vhdl_text.find("x_strb : in std_logic_vector(0 downto 0)"),
            std::string::npos);
}

TEST(Vhdl, StructuralArchitectureWiresConnections) {
  auto result = compile(kSmallDesign, "top");
  const std::string& vhdl = result.vhdl_text;
  EXPECT_NE(vhdl.find("architecture structural of top is"),
            std::string::npos);
  EXPECT_NE(vhdl.find("component stage is"), std::string::npos);
  EXPECT_NE(vhdl.find("u_s1 : stage"), std::string::npos);
  EXPECT_NE(vhdl.find("port map ("), std::string::npos);
  // Internal bundle wiring: s1.b -> s2.a forward data and backward ready.
  EXPECT_NE(vhdl.find("sig_s2_a_data <= sig_s1_b_data;"), std::string::npos);
  EXPECT_NE(vhdl.find("sig_s1_b_ready <= sig_s2_a_ready;"),
            std::string::npos);
}

TEST(Vhdl, UnknownExternalIsBlackBox) {
  auto result = compile(kSmallDesign, "top");
  EXPECT_NE(result.vhdl_text.find("architecture blackbox of stage"),
            std::string::npos);
}

TEST(Vhdl, NameSanitization) {
  EXPECT_EQ(vhdl::vhdl_name("dup_i__t_byte_2_abc12345"),
            "dup_i_t_byte_2_abc12345");
  EXPECT_EQ(vhdl::vhdl_name("Weird  Name!"), "weird_name");
  EXPECT_EQ(vhdl::vhdl_name("_leading"), "leading");
  EXPECT_EQ(vhdl::vhdl_name("9starts_with_digit"), "x9starts_with_digit");
  EXPECT_EQ(vhdl::vhdl_name(""), "x");
}

// Every stdlib family with an RTL generator must produce a behavioural
// architecture (not a black box) when instantiated.
class StdlibRtl : public ::testing::TestWithParam<const char*> {};

TEST_P(StdlibRtl, FamilyGeneratesBehaviouralBody) {
  const std::string family = GetParam();
  std::string source = R"(
type t_a = Stream(Bit(16), d=1, c=2);
type t_o = Stream(Bit(32), d=1, c=2);
streamlet top_s { x: t_a in, y: t_o out, x2: t_a in, b: std_bool out, }
impl top of top_s {
)";
  // Instantiate the family with suitable arguments and wire it plausibly;
  // sugaring cleans up the leftovers.
  if (family == "duplicator_i") {
    source += R"(
  instance u(duplicator_i<type t_a, 3>),
  x => u.in_,
)";
  } else if (family == "voider_i") {
    source += R"(
  instance u(voider_i<type t_a>),
  x => u.in_,
)";
  } else if (family == "adder_i" || family == "subtractor_i" ||
             family == "multiplier_i") {
    source += "  instance u(" + family + "<type t_a, type t_o>),\n"
              "  x => u.in_,\n  u.out => y,\n";
  } else if (family == "comparator_i") {
    source += R"(
  instance u(comparator_i<type t_a, type std_bool, "<=">),
  x => u.in_,
  u.out => b,
)";
  } else if (family == "const_compare_i") {
    source += R"(
  instance u(const_compare_i<type t_a, type std_bool, "AIR", "==">),
  x => u.in_,
  u.out => b,
)";
  } else if (family == "const_compare_int_i") {
    source += R"(
  instance u(const_compare_int_i<type t_a, type std_bool, 24, "<">),
  x => u.in_,
  u.out => b,
)";
  } else if (family == "filter_i") {
    source += R"(
  instance p(const_compare_int_i<type t_a, type std_bool, 1, ">=">),
  instance u(filter_i<type t_a, type std_bool>),
  x => u.in_,
  x2 => p.in_,
  p.out => u.keep,
)";
  } else if (family == "logic_and_i" || family == "logic_or_i") {
    source += "  instance p1(const_compare_int_i<type t_a, type std_bool, 1, "
              "\">=\">),\n"
              "  instance p2(const_compare_int_i<type t_a, type std_bool, 9, "
              "\"<\">),\n"
              "  instance u(" + family + "<type std_bool, 2>),\n"
              "  x => p1.in_,\n  x2 => p2.in_,\n"
              "  p1.out => u.in_[0],\n  p2.out => u.in_[1],\n"
              "  u.out => b,\n";
  } else if (family == "demux_i") {
    source += R"(
  instance u(demux_i<type t_a, 2>),
  x => u.in_,
)";
  } else if (family == "mux_i") {
    source += R"(
  instance u(mux_i<type t_a, 2>),
  x => u.in_[0],
  x2 => u.in_[1],
)";
  } else if (family == "accumulator_i") {
    source += R"(
  instance u(accumulator_i<type t_a, type t_o>),
  x => u.in_,
  u.out => y,
)";
  } else if (family == "const_generator_i") {
    source += R"(
  instance u(const_generator_i<type t_a, 42>),
)";
  } else if (family == "source_i") {
    source += R"(
  instance u(source_i<type t_a>),
)";
  } else if (family == "sink_i") {
    source += R"(
  instance u(sink_i<type t_a>),
  x => u.in_,
)";
  } else if (family == "add2_i" || family == "sub2_i" ||
             family == "mul2_i") {
    source += "  instance u(" + family +
              "<type t_a, type t_a, type t_o>),\n"
              "  x => u.lhs,\n  x2 => u.rhs,\n  u.out => y,\n";
  } else if (family == "cmp2_i") {
    source += R"(
  instance u(cmp2_i<type t_a, type t_a, type std_bool, "<=">),
  x => u.lhs,
  x2 => u.rhs,
  u.out => b,
)";
  }
  source += "}\n";

  driver::CompileOptions options;
  options.top = "top";
  options.drc.port_use_count_is_error = false;  // probes leave loose ends
  auto result = driver::compile_source(source, options);
  ASSERT_TRUE(result.success()) << family << "\n" << result.report();
  EXPECT_NE(result.vhdl_text.find("architecture behavioural of"),
            std::string::npos)
      << family << " fell back to a black box";
}

INSTANTIATE_TEST_SUITE_P(
    Families, StdlibRtl,
    ::testing::Values("duplicator_i", "voider_i", "adder_i", "subtractor_i",
                      "multiplier_i", "comparator_i", "const_compare_i",
                      "const_compare_int_i", "filter_i", "logic_and_i",
                      "logic_or_i", "demux_i", "mux_i", "accumulator_i",
                      "const_generator_i", "source_i", "sink_i", "add2_i",
                      "sub2_i", "mul2_i", "cmp2_i"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(Vhdl, RtlFamilyListExposed) {
  const auto& families = vhdl::stdlib_rtl_families();
  EXPECT_GE(families.size(), 15u);
}

TEST(Vhdl, GeneratedTextIsMostlyWellFormed) {
  // Cheap well-formedness: balanced entity/end entity and architecture/end
  // architecture counts on a full TPC-H compile.
  auto result = compile(kSmallDesign, "top");
  const std::string& vhdl = result.vhdl_text;
  auto count = [&vhdl](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t pos = vhdl.find(needle); pos != std::string::npos;
         pos = vhdl.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  // Each impl contributes "entity x is" + "end entity x;" (the needle
  // matches inside "end entity " too), and likewise for architectures.
  EXPECT_EQ(count("entity "), 2 * count("end entity "));
  EXPECT_EQ(count("architecture "), 2 * count("end architecture "));
}

}  // namespace
}  // namespace tydi
