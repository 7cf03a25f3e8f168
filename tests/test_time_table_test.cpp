#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {
namespace {

TEST(TestTimeTable, RejectsBadWidth) {
  const Soc soc = builtin_soc2();
  EXPECT_THROW(TestTimeTable(soc, 0), std::invalid_argument);
  const TestTimeTable table(soc, 8);
  EXPECT_THROW(table.time(0, 0), std::out_of_range);
  EXPECT_THROW(table.time(0, 9), std::out_of_range);
}

TEST(TestTimeTable, MonotoneNonIncreasing) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 64);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 2; w <= 64; ++w) {
      EXPECT_LE(table.time(i, w), table.time(i, w - 1))
          << "core " << i << " width " << w;
    }
  }
}

TEST(TestTimeTable, EnvelopeNeverAboveRaw) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 48);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= 48; ++w) {
      EXPECT_LE(table.time(i, w), core_test_time(soc.core(i), w));
    }
  }
}

TEST(TestTimeTable, EffectiveWidthAchievesEnvelope) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 48);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= 48; ++w) {
      const int ew = table.effective_width(i, w);
      EXPECT_LE(ew, w);
      EXPECT_GE(ew, 1);
      EXPECT_EQ(core_test_time(soc.core(i), ew), table.time(i, w));
    }
  }
}

TEST(TestTimeTable, ParetoWidthsStrictlyImprove) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 64);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const auto widths = table.pareto_widths(i);
    ASSERT_FALSE(widths.empty());
    EXPECT_EQ(widths.front(), 1);
    for (std::size_t k = 1; k < widths.size(); ++k) {
      EXPECT_LT(table.time(i, widths[k]), table.time(i, widths[k - 1]));
    }
  }
}

TEST(TestTimeTable, TotalTimeIsSum) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 16);
  Cycles sum = 0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) sum += table.time(i, 16);
  EXPECT_EQ(table.total_time(16), sum);
}

TEST(TestTimeTable, WidthOneMatchesSerialFormula) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 4);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const Core& c = soc.core(i);
    const Cycles si = c.scan_in_elements();
    const Cycles so = c.scan_out_elements();
    const Cycles expect =
        c.num_patterns * (1 + std::max(si, so)) + std::min(si, so);
    EXPECT_EQ(table.time(i, 1), expect) << c.name;
  }
}

TEST(TestTimeTable, BigCoresBenefitFromWidth) {
  // s38417 (32 scan chains) must speed up dramatically from w=1 to w=32.
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 32);
  const auto idx = *soc.find_core("s38417");
  EXPECT_LT(table.time(idx, 32) * 10, table.time(idx, 1));
}

/// soc1-soc4 plus `count` seeded generated SOCs that mix hard, soft and
/// combinational cores, with bidirectional terminals on about a third of
/// the cores.
std::vector<Soc> kernel_test_socs(int count) {
  std::vector<Soc> socs = {builtin_soc1(), builtin_soc2(), builtin_soc3(),
                           builtin_soc4()};
  Rng rng(0x7ab1e);
  for (int k = 0; k < count; ++k) {
    SocGeneratorOptions gen;
    gen.num_cores = static_cast<int>(rng.uniform_int(2, 8));
    gen.combinational_fraction = 0.2;
    gen.soft_core_fraction = 0.4;
    gen.max_chains = static_cast<int>(rng.uniform_int(1, 48));
    gen.max_chain_length = static_cast<int>(rng.uniform_int(8, 400));
    gen.place = false;
    Soc soc = generate_soc(gen, rng);
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      if (rng.bernoulli(0.35)) {
        soc.mutable_core(i).num_bidirs = static_cast<int>(rng.uniform_int(1, 120));
      }
    }
    socs.push_back(std::move(soc));
  }
  return socs;
}

// The table's time-only kernel against the full wrapper designer: every
// envelope cell is the running minimum of wrapper_test_time over the
// designs design_wrapper produces, for each partition heuristic.
TEST(TestTimeTable, KernelMatchesWrapperDesignerForEveryHeuristic) {
  const std::vector<Soc> socs = kernel_test_socs(200);
  Rng rng(0x5eed);
  for (std::size_t s = 0; s < socs.size(); ++s) {
    const Soc& soc = socs[s];
    const int max_width = s < 4 ? 128 : static_cast<int>(rng.uniform_int(1, 128));
    for (const PartitionHeuristic h :
         {PartitionHeuristic::kBestFitDecreasing, PartitionHeuristic::kLpt,
          PartitionHeuristic::kRoundRobin}) {
      const TestTimeTable table(soc, max_width, h);
      for (std::size_t i = 0; i < soc.num_cores(); ++i) {
        Cycles envelope = 0;
        for (int w = 1; w <= max_width; ++w) {
          const Cycles t = wrapper_test_time(soc.core(i), design_wrapper(soc.core(i), w, h));
          envelope = w == 1 ? t : std::min(envelope, t);
          ASSERT_EQ(table.time(i, w), envelope)
              << "soc " << s << " core " << i << " width " << w
              << " heuristic " << static_cast<int>(h);
        }
      }
    }
  }
}

TEST(TestTimeTable, CellsDoNotDependOnMaxWidth) {
  const std::vector<Soc> socs = kernel_test_socs(20);
  for (std::size_t s = 0; s < socs.size(); ++s) {
    const Soc& soc = socs[s];
    const TestTimeTable wide(soc, 96);
    for (int top = 1; top <= 96; ++top) {
      const TestTimeTable narrow(soc, top);
      for (std::size_t i = 0; i < soc.num_cores(); ++i) {
        for (int w = 1; w <= top; ++w) {
          ASSERT_EQ(wide.time(i, w), narrow.time(i, w))
              << "soc " << s << " core " << i << " width " << w << " of " << top;
        }
      }
    }
  }
}

}  // namespace
}  // namespace soctest
